"""Engine instrumentation: what ran, was cached, retried, or failed.

Every :func:`repro.engine.spec.execute` call records one
:class:`EngineStats` into the module-level :data:`telemetry` log; the
experiment CLI resets the log around each experiment and prints the
aggregate (points, cache hits, wall-clock, points/sec, plus the
resilience counters -- retries, timeouts, worker respawns (printed as
"pool respawns"), quarantined cache entries, failures) after the
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.engine.policy import PointFailure


@dataclass
class EngineStats:
    """One ``execute()`` call's accounting."""

    spec: str
    points: int = 0
    executed: int = 0
    cache_hits: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    #: Re-attempts granted after exceptions or timeouts.
    retries: int = 0
    #: Points that exceeded the per-point wall-clock limit.
    timeouts: int = 0
    #: Worker respawns after worker crashes or hung-worker kills.
    respawns: int = 0
    #: Corrupt cache entries renamed to ``*.corrupt`` this run.
    quarantined: int = 0
    #: Points that exhausted their attempts (salvaged, not raised).
    failures: List[PointFailure] = field(default_factory=list)
    #: Per-point compute seconds, measured inside the executing process
    #: (cache hits contribute 0.0).
    point_seconds: List[float] = field(default_factory=list)

    @property
    def points_per_sec(self) -> float:
        return self.points / self.wall_s if self.wall_s > 0 else 0.0

    def format(self) -> str:
        parts = [f"{self.points} points"]
        if self.cache_hits:
            parts.append(f"{self.executed} executed, "
                         f"{self.cache_hits} cached")
        if self.jobs > 1:
            parts.append(f"jobs={self.jobs}")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.respawns:
            parts.append(f"{self.respawns} pool respawns")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        parts.append(f"{self.wall_s:.2f}s wall")
        parts.append(f"{self.points_per_sec:.1f} points/s")
        return f"[engine {self.spec}: " + ", ".join(parts) + "]"


def publish_to_registry(stats: EngineStats) -> None:
    """Mirror one execution's counters into the metrics registry.

    Publishes into the process-global
    :func:`repro.obs.registry.default_registry`; when that registry is
    disabled (the default) this is a handful of no-op calls.
    """
    from repro.obs.registry import default_registry

    registry = default_registry()
    if not registry.enabled:
        return
    points = registry.counter(
        "engine_points_total",
        "Engine points by disposition", ("spec", "disposition"))
    points.labels(spec=stats.spec, disposition="executed") \
        .inc(stats.executed)
    points.labels(spec=stats.spec, disposition="cached") \
        .inc(stats.cache_hits)
    points.labels(spec=stats.spec, disposition="failed") \
        .inc(len(stats.failures))
    resilience = registry.counter(
        "engine_recoveries_total",
        "Retries, timeouts, respawns, quarantined cache entries",
        ("spec", "kind"))
    resilience.labels(spec=stats.spec, kind="retries") \
        .inc(stats.retries)
    resilience.labels(spec=stats.spec, kind="timeouts") \
        .inc(stats.timeouts)
    resilience.labels(spec=stats.spec, kind="respawns") \
        .inc(stats.respawns)
    resilience.labels(spec=stats.spec, kind="quarantined") \
        .inc(stats.quarantined)
    if stats.failures:
        salvaged = registry.counter(
            "engine_point_failures_total",
            "Salvaged point failures by kind "
            "(exception, timeout, worker-crash)", ("spec", "kind"))
        for failure in stats.failures:
            salvaged.labels(spec=stats.spec, kind=failure.kind).inc()
    registry.counter(
        "engine_wall_seconds_total",
        "Wall-clock spent in execute()", ("spec",)) \
        .labels(spec=stats.spec).inc(stats.wall_s)
    registry.gauge(
        "engine_jobs", "Executor width of the last execution",
        ("spec",)).labels(spec=stats.spec).set(stats.jobs)
    seconds = registry.histogram(
        "engine_point_seconds",
        "Per-point compute seconds (executed points only)",
        ("spec",))
    for value in stats.point_seconds:
        if value > 0:
            seconds.labels(spec=stats.spec).observe(value)


class TelemetryLog:
    """Append-only log of engine executions (reset per experiment)."""

    def __init__(self) -> None:
        self.records: List[EngineStats] = []

    def record(self, stats: EngineStats) -> None:
        self.records.append(stats)
        publish_to_registry(stats)

    def reset(self) -> None:
        self.records = []

    @property
    def total_points(self) -> int:
        return sum(record.points for record in self.records)

    @property
    def total_executed(self) -> int:
        return sum(record.executed for record in self.records)

    @property
    def total_cache_hits(self) -> int:
        return sum(record.cache_hits for record in self.records)

    @property
    def total_retries(self) -> int:
        return sum(record.retries for record in self.records)

    @property
    def total_timeouts(self) -> int:
        return sum(record.timeouts for record in self.records)

    @property
    def total_respawns(self) -> int:
        return sum(record.respawns for record in self.records)

    @property
    def total_quarantined(self) -> int:
        return sum(record.quarantined for record in self.records)

    @property
    def total_wall_s(self) -> float:
        return sum(record.wall_s for record in self.records)

    @property
    def failures(self) -> List[PointFailure]:
        """Every salvaged point failure since the last reset."""
        return [failure for record in self.records
                for failure in record.failures]

    def format(self) -> str:
        """One line summarizing everything since the last reset."""
        points = self.total_points
        wall = self.total_wall_s
        rate = points / wall if wall > 0 else 0.0
        extras = []
        if self.total_retries:
            extras.append(f", {self.total_retries} retries")
        if self.total_timeouts:
            extras.append(f", {self.total_timeouts} timeouts")
        if self.total_respawns:
            extras.append(f", {self.total_respawns} pool respawns")
        if self.total_quarantined:
            extras.append(f", {self.total_quarantined} quarantined")
        failed = len(self.failures)
        if failed:
            extras.append(f", {failed} FAILED")
        return (f"[engine: {points} points "
                f"({self.total_executed} executed, "
                f"{self.total_cache_hits} cached"
                + "".join(extras) + ") "
                f"in {wall:.2f}s — {rate:.1f} points/s]")


#: The process-wide execution log.
telemetry = TelemetryLog()

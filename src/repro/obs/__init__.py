"""Unified observability: metrics, timelines, profiling, exporters.

The paper's claims are temporal -- GPS inter-access gaps bounded by the
4-second deadline under R1-R3 slot reassignment, reservation backlog
under contention, utilization vs. load -- so this package provides the
three views a serving stack needs to *watch* a run instead of only
summarizing it afterwards:

* :mod:`~repro.obs.registry` -- a low-overhead metrics registry
  (Counter/Gauge/Histogram with label sets, process-global default,
  near-zero cost when disabled) that the engine's telemetry and the
  faults invariant monitor publish into.
* :mod:`~repro.obs.timeline` -- a per-cycle timeline recorder that
  instruments a built :class:`~repro.core.cell.CellRun` through public
  hooks only (like :class:`~repro.trace.CellTracer`) and samples queue
  depths, slot utilization, uplink collisions, GPS deadline margins,
  reservation backlog, and registration churn once per notification
  cycle.
* :mod:`~repro.obs.profiler` -- cProfile rows per function (calls,
  exclusive and inclusive seconds) for a profiled run, mergeable across
  a sweep's workers and printed heaviest first (``--profile``).
* :mod:`~repro.obs.export` -- JSONL/CSV writers, Prometheus text
  exposition, and per-run manifests (config hash, seed, git revision,
  :class:`~repro.engine.policy.RunPolicy`).
* :mod:`~repro.obs.render` -- terminal rendering of a recorded
  timeline (the ``python -m repro obs`` subcommand).
"""

from repro.obs.export import (
    build_manifest,
    sidecar_paths,
    to_prometheus,
    write_csv,
    write_jsonl,
    write_manifest,
)
from repro.obs.registry import (
    NULL_CHILD,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.timeline import TimelinePoint, TimelineRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_CHILD",
    "TimelinePoint",
    "TimelineRecorder",
    "build_manifest",
    "default_registry",
    "set_default_registry",
    "sidecar_paths",
    "to_prometheus",
    "write_csv",
    "write_jsonl",
    "write_manifest",
]

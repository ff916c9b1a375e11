"""Per-cycle timeline recording for one cell run.

:class:`TimelineRecorder` instruments a *built* (not yet run)
:class:`~repro.core.cell.CellRun` through public hooks only -- a
delivery listener on the reverse channel, the base station's
registration hook, and a sampling callback on the simulator -- exactly
the contract :class:`~repro.trace.CellTracer` follows, so the protocol
code runs unmodified and results are bit-identical with and without the
recorder.

Once per notification cycle (late in the cycle, after the schedule is
committed) it snapshots the live protocol state into one
:class:`TimelinePoint`: uplink queue depths, reservation backlog,
forward backlog, registration census and churn, slot utilization,
uplink collisions, and -- the paper's headline guarantee -- the GPS
deadline margin (4 s minus the inter-access gap each GPS unit actually
experienced, computed independently from on-air transmissions rather
than from the unit's own bookkeeping).

A timeline is the ground truth behind ``--metrics``: dump it with
:meth:`TimelineRecorder.write_jsonl` and re-render it later with
``python -m repro obs``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.core.cell import CellRun
from repro.core.frames import SLOT_DATA, UplinkFrame
from repro.obs.registry import (
    CachedChild,
    MetricsRegistry,
    default_registry,
)
from repro.phy import timing
from repro.phy.channel import Transmission

#: Offset into each cycle at which the sampler runs: after the
#: invariant monitor (0.9) and after most slots have resolved, but
#: before the next cycle's schedule is built.
SAMPLE_OFFSET = 0.95 * timing.CYCLE_LENGTH


@dataclass(frozen=True)
class TimelinePoint:
    """One per-cycle sample of a cell's live state."""

    cycle: int
    time: float
    #: Queued uplink fragments across all data subscribers.
    uplink_queue_depth: int
    #: Deepest single subscriber queue this cycle.
    uplink_queue_max: int
    #: Fragments transmitted but not yet acknowledged.
    inflight_packets: int
    #: Sum of outstanding reverse-slot demands at the base station
    #: (the reservation backlog the round-robin scheduler works off).
    reservation_backlog: int
    #: Queued downlink packets across all forward queues.
    forward_backlog: int
    registered_data: int
    registered_gps: int
    #: Registrations completed during this cycle.
    registrations: int
    #: Liveness-lease evictions during this cycle.
    lease_evictions: int
    #: Reverse-channel transmissions observed this cycle.
    uplink_transmissions: int
    #: Transmissions that collided this cycle.
    uplink_collisions: int
    #: GPS reports heard on the air this cycle.
    gps_reports: int
    #: Uplink data packets received OK this cycle (not warmup-gated).
    data_deliveries: int
    #: Delivered / available reverse data slots (settled cycles only;
    #: the occupancy ledger lags ~2 cycles and is warmup-gated).
    slot_utilization: float
    #: min over GPS units of (deadline - inter-access gap) for gaps
    #: closed this cycle; None when no unit closed a gap.
    gps_min_margin_s: Optional[float]
    #: Longest GPS inter-access gap closed this cycle (None if none).
    gps_max_gap_s: Optional[float]
    #: Invariant-monitor violations recorded this cycle.
    invariant_violations: int

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class _Deltas:
    """Per-cycle deltas over monotonically growing counters."""

    def __init__(self) -> None:
        self._last: Dict[str, float] = {}

    def step(self, name: str, value: float) -> float:
        delta = value - self._last.get(name, 0.0)
        self._last[name] = value
        return delta


class TimelineRecorder:
    """Samples one cell once per notification cycle."""

    def __init__(self, run: CellRun,
                 registry: Optional[MetricsRegistry] = None,
                 max_points: int = 1_000_000,
                 metric_labels: Optional[Dict[str, str]] = None):
        self.run = run
        self.deadline = run.config.gps_deadline
        self.max_points = max_points
        self.points: List[TimelinePoint] = []
        self.dropped = 0
        self._deltas = _Deltas()
        #: Per-GPS-sender time of the last on-air report.
        self._gps_last_tx: Dict[str, float] = {}
        #: Longest inter-access gap ever closed, per GPS sender.
        self.gps_max_gap_by_unit: Dict[str, float] = {}
        # Per-cycle accumulators, reset at each sample.
        self._cycle_gps_reports = 0
        self._cycle_gps_margins: List[float] = []
        self._cycle_data_deliveries = 0
        self._cycle_registrations = 0

        self._metrics = _TimelineMetrics(
            registry if registry is not None else default_registry(),
            labels=metric_labels)

        run.base_station.reverse.add_listener(self._on_reverse)
        self._chain_registration_hook(run)
        run.sim.call_at(run.sim.now, self._start_sampling)

    # -- hooks ------------------------------------------------------------

    def _chain_registration_hook(self, run: CellRun) -> None:
        previous = run.base_station.on_registration

        def hook(record):
            self._cycle_registrations += 1
            if previous is not None:
                previous(record)

        run.base_station.on_registration = hook

    def _on_reverse(self, transmission: Transmission, ok: bool) -> None:
        frame: UplinkFrame = transmission.payload
        if frame.slot_kind != SLOT_DATA:
            # A GPS report on the air is an *access*: the 4-second QoS
            # clock measures gaps between consecutive accesses, so the
            # margin is computed from transmission start times alone
            # (collisions and channel loss do not extend the gap).
            self._cycle_gps_reports += 1
            sender = str(transmission.sender)
            last = self._gps_last_tx.get(sender)
            if last is not None:
                gap = transmission.start - last
                self._cycle_gps_margins.append(self.deadline - gap)
                if gap > self.gps_max_gap_by_unit.get(sender, 0.0):
                    self.gps_max_gap_by_unit[sender] = gap
            self._gps_last_tx[sender] = transmission.start
            return
        if ok and frame.kind == "data":
            self._cycle_data_deliveries += 1

    # -- sampling ---------------------------------------------------------

    def _start_sampling(self) -> None:
        sim = self.run.sim
        sim.call_at(sim.now + SAMPLE_OFFSET, self._sample_tick)

    def _sample_tick(self) -> None:
        self._sample()
        sim = self.run.sim
        sim.call_at(sim.now + timing.CYCLE_LENGTH, self._sample_tick)

    def _sample(self) -> None:
        run = self.run
        bs = run.base_station
        stats = run.stats
        step = self._deltas.step

        queue_depths = [len(sub.queue) for sub in run.data_users]
        inflight = sum(len(sub.inflight) for sub in run.data_users)
        backlog = sum(bs.demands.values())
        forward_backlog = sum(len(queue)
                              for queue in bs.forward_queues.values())

        slots_used = step("slots_used",
                          stats.reverse_data_slots_used)
        slots_total = step("slots_total",
                           stats.reverse_data_slots_total)
        margins = self._cycle_gps_margins
        point = TimelinePoint(
            cycle=bs.cycle,
            time=run.sim.now,
            uplink_queue_depth=sum(queue_depths),
            uplink_queue_max=max(queue_depths, default=0),
            inflight_packets=inflight,
            reservation_backlog=backlog,
            forward_backlog=forward_backlog,
            registered_data=bs.registration.active_data,
            registered_gps=bs.registration.active_gps,
            registrations=self._cycle_registrations,
            lease_evictions=int(step("lease_evictions",
                                     stats.lease_evictions)),
            uplink_transmissions=int(step(
                "uplink_tx", bs.reverse.total_transmissions)),
            uplink_collisions=int(step(
                "uplink_collisions", bs.reverse.total_collisions)),
            gps_reports=self._cycle_gps_reports,
            data_deliveries=self._cycle_data_deliveries,
            slot_utilization=(slots_used / slots_total
                              if slots_total else 0.0),
            gps_min_margin_s=min(margins) if margins else None,
            gps_max_gap_s=(self.deadline - min(margins)
                           if margins else None),
            invariant_violations=int(step(
                "invariant_violations", stats.invariant_violations)),
        )
        self._cycle_gps_reports = 0
        self._cycle_gps_margins = []
        self._cycle_data_deliveries = 0
        self._cycle_registrations = 0
        if len(self.points) >= self.max_points:
            self.dropped += 1
        else:
            self.points.append(point)
        self._metrics.publish(point)

    # -- reporting --------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, object]]:
        return [point.to_dict() for point in self.points]

    def summary(self) -> Dict[str, object]:
        """Run-level digest of the recorded timeline."""
        margins = [point.gps_min_margin_s for point in self.points
                   if point.gps_min_margin_s is not None]
        gaps = [point.gps_max_gap_s for point in self.points
                if point.gps_max_gap_s is not None]
        depths = [point.uplink_queue_depth for point in self.points]
        backlogs = [point.reservation_backlog
                    for point in self.points]
        count = len(self.points)
        return {
            "cycles_sampled": count,
            "points_dropped": self.dropped,
            "gps_min_margin_s": min(margins) if margins else None,
            "gps_max_gap_s": max(gaps) if gaps else None,
            "gps_deadline_s": self.deadline,
            #: True iff every observed inter-access gap met the
            #: deadline -- the independent check of the R1-R3 claim.
            "gps_deadline_held": (min(margins) >= 0.0
                                  if margins else None),
            "max_uplink_queue_depth": max(depths, default=0),
            "mean_uplink_queue_depth": (sum(depths) / count
                                        if count else 0.0),
            "max_reservation_backlog": max(backlogs, default=0),
            "uplink_collisions": sum(point.uplink_collisions
                                     for point in self.points),
            "registrations": sum(point.registrations
                                 for point in self.points),
            "lease_evictions": sum(point.lease_evictions
                                   for point in self.points),
            "invariant_violations": sum(point.invariant_violations
                                        for point in self.points),
        }

    def write_jsonl(self, path: str,
                    labels: Optional[Dict[str, object]] = None) -> int:
        """Dump the timeline as JSON lines; returns the point count."""
        from repro.obs.export import write_jsonl

        records = self.to_dicts()
        if labels:
            records = [dict(record, **labels) for record in records]
        return write_jsonl(path, records)

    def write_csv(self, path: str) -> int:
        from repro.obs.export import write_csv

        return write_csv(path, self.to_dicts())


class _TimelineMetrics:
    """Publishes each sample into a metrics registry.

    Each child is resolved the first time it is published into an
    enabled registry and reused after that (see
    :class:`~repro.obs.registry.CachedChild`), so an enabled registry
    costs about two calls per metric per cycle and a disabled one a
    single flag check.  Gauges track the latest cycle; counters
    accumulate.

    ``labels`` (e.g. ``{"cell": "cell0"}``) prefix every family's label
    set, letting several recorders -- the service mode runs one per
    cell -- share a registry without colliding.  With no labels the
    families are label-less, exactly as before.
    """

    def __init__(self, registry: MetricsRegistry,
                 labels: Optional[Dict[str, str]] = None):
        self.registry = registry
        labels = dict(labels or {})
        self._names = tuple(labels)
        self._values = tuple(str(value) for value in labels.values())
        gauge, counter = registry.gauge, registry.counter
        self._cycle = self._child(
            gauge, "osu_cycle", "Current notification cycle")
        self._queue_depth = self._child(
            gauge, "osu_uplink_queue_depth",
            "Queued uplink fragments across data subscribers")
        self._backlog = self._child(
            gauge, "osu_reservation_backlog",
            "Outstanding reverse-slot demands at the base station")
        self._forward_backlog = self._child(
            gauge, "osu_forward_backlog", "Queued downlink packets")
        self._registered_data = self._child(
            gauge, "osu_registered_users", "Registered subscribers",
            service="data")
        self._registered_gps = self._child(
            gauge, "osu_registered_users", "Registered subscribers",
            service="gps")
        self._utilization = self._child(
            gauge, "osu_slot_utilization",
            "Reverse data slots used / available (settled cycles)")
        self._collisions = self._child(
            counter, "osu_uplink_collisions_total",
            "Reverse-channel collisions")
        self._registrations = self._child(
            counter, "osu_registrations_total", "Registrations completed")
        self._evictions = self._child(
            counter, "osu_lease_evictions_total",
            "Liveness-lease evictions")
        self._margins = self._child(
            registry.histogram, "osu_gps_deadline_margin_seconds",
            "4s deadline minus observed GPS inter-access gap",
            buckets=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0))
        self._min_margin = self._child(
            gauge, "osu_gps_min_margin_seconds",
            "Worst GPS deadline margin this cycle")

    def _child(self, family, name: str, help: str,
               service: Optional[str] = None, **kwargs) -> CachedChild:
        names, values = self._names, self._values
        if service is not None:
            names, values = names + ("service",), values + (service,)
        return CachedChild(
            self.registry,
            lambda: family(name, help, names, **kwargs).labels(*values))

    def publish(self, point: TimelinePoint) -> None:
        if not self.registry.enabled:
            return
        self._cycle().set(point.cycle)
        self._queue_depth().set(point.uplink_queue_depth)
        self._backlog().set(point.reservation_backlog)
        self._forward_backlog().set(point.forward_backlog)
        self._registered_data().set(point.registered_data)
        self._registered_gps().set(point.registered_gps)
        self._utilization().set(point.slot_utilization)
        self._collisions().inc(point.uplink_collisions)
        self._registrations().inc(point.registrations)
        self._evictions().inc(point.lease_evictions)
        if point.gps_min_margin_s is not None:
            self._margins().observe(point.gps_min_margin_s)
            self._min_margin().set(point.gps_min_margin_s)

"""One supervised cell: cycle-stepped simulation with a control plane.

:class:`CellService` owns a single live cell and advances it one
notification cycle at a time (``step_cycle``), applying queued control
operations only at cycle boundaries.  That discipline is what makes the
whole service replayable: every input that can change simulator state
-- load dials, joins, leaves, fault injections, degraded-mode
transitions -- is journaled with the cycle it preceded, so
``start(resume=True)`` rebuilds the cell from config + seed, re-applies
the ops at their recorded cycles, fast-forwards (unpaced) to the last
snapshot, and *verifies* the replayed cumulative counters equal the
snapshot exactly before going live again.  Wall-clock concerns --
pacing, lag, watchdog heartbeats -- live in the supervisor and are
deliberately not journaled: they do not touch simulator state.

Thread model: exactly one worker thread calls ``step_cycle``; control
plane threads only *enqueue* validated ops and read status.  A
cancelled service (watchdog takeover) raises :class:`Cancelled` out of
``step_cycle`` before it would touch the journal again, so the
replacement service owns the tail exclusively.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional

from repro.core.cell import (
    CellRun,
    attach_data_user,
    attach_gps_unit,
    build_cell,
)
from repro.core.config import CellConfig
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSpec, parse_faults
from repro.obs.export import config_digest
from repro.obs.registry import CachedChild, MetricsRegistry
from repro.obs.timeline import TimelineRecorder
from repro.phy import timing
from repro.serve import stabilize
from repro.serve.admission import AdmissionController
from repro.serve.config import ServeConfig
from repro.serve.journal import ServiceJournal, ServiceLog

__all__ = ["CellService", "ServiceError", "ResumeIntegrityError",
           "Cancelled", "DegradedError",
           "STARTING", "REPLAYING", "RUNNING", "FAILED", "STOPPED"]

STARTING = "starting"
REPLAYING = "replaying"
RUNNING = "running"
FAILED = "failed"
STOPPED = "stopped"


class ServiceError(RuntimeError):
    """Service-level misuse or integrity failure."""


class ResumeIntegrityError(ServiceError):
    """Replayed state diverged from the journaled snapshot."""


class DegradedError(ServiceError):
    """Rejected because the cell is shedding load (maps to HTTP 503)."""


class Cancelled(Exception):
    """Raised out of ``step_cycle`` after a watchdog takeover."""


#: Cycle count handed to the cell config: the service steps manually
#: and never consults ``config.duration``, but ``cycles`` must satisfy
#: validation and exceed any realistic soak.
_OPEN_ENDED_CYCLES = 10 ** 9


class CellService:
    """A single cell run as a long-lived, journaled service."""

    def __init__(self, name: str, cell_config: CellConfig,
                 serve_config: ServeConfig,
                 registry: Optional[MetricsRegistry] = None):
        self.name = name
        self.serve_config = serve_config
        # The service always runs the invariant monitor (its per-cycle
        # verdict is the readiness/self-stabilization signal) and needs
        # liveness leases so leaves and crashes are ever cleaned up.
        self.cell_config = replace(
            cell_config,
            check_invariants=True,
            liveness_lease_cycles=(cell_config.liveness_lease_cycles
                                   or 8),
            cycles=_OPEN_ENDED_CYCLES,
            warmup_cycles=0)
        self.config_sha256 = config_digest(self.cell_config)
        self.registry = registry if registry is not None \
            else MetricsRegistry(enabled=True)
        self.journal = ServiceJournal(
            f"{serve_config.name}-{name}",
            root=serve_config.journal_root)
        self.admission = AdmissionController(
            serve_config.lag_budget_s, serve_config.lag_recover_s)

        self.state = STARTING
        self.error: Optional[str] = None
        #: Completed notification cycles.
        self.cycle = 0
        #: Degraded mode as applied to the simulation (flips only at
        #: cycle boundaries; ``admission.degraded`` is the live signal).
        self.degraded = False
        self.dial = 1.0
        self.lag_s = 0.0
        self.heartbeat = time.monotonic()
        self.cancelled = threading.Event()

        self.counters: Dict[str, int] = {
            "joins_data": 0, "joins_gps": 0, "joins_shed": 0,
            "leaves": 0, "fault_ops": 0, "degrade_transitions": 0,
        }
        self.history: Deque[Dict[str, Any]] = deque(
            maxlen=serve_config.history_cycles)
        self.probe: Optional[Dict[str, Any]] = None

        self._ops_lock = threading.Lock()
        self._pending_ops: List[Dict[str, Any]] = []
        self._pending_joins = {"data": 0, "gps": 0}
        self._stall_s = 0.0
        self._base_uplink: Optional[float] = None
        self._base_forward: Optional[float] = None
        self._resumed_at_cycle = 0
        self._violations_at_resume = 0
        self.run: Optional[CellRun] = None
        self.recorder: Optional[TimelineRecorder] = None
        # Published every cycle, so resolved once (see CachedChild).
        self._cycles_total = CachedChild(
            self.registry, lambda: self.registry.counter(
                "osu_serve_cycles_total", "Completed notification cycles",
                ("cell",)).labels(self.name))
        self._lag_gauge = CachedChild(
            self.registry, lambda: self._gauge(
                "osu_serve_lag_seconds",
                "Real seconds behind the pacing schedule"))

    # -- metrics helpers ---------------------------------------------------

    def _gauge(self, name: str, help: str):
        return self.registry.gauge(name, help, ("cell",)) \
            .labels(self.name)

    def _counter_metric(self, key: str):
        names = {
            "joins_data": ("osu_serve_joins_total",
                           "Runtime subscriber joins", ("service",),
                           ("data",)),
            "joins_gps": ("osu_serve_joins_total",
                          "Runtime subscriber joins", ("service",),
                          ("gps",)),
            "joins_shed": ("osu_serve_joins_shed_total",
                           "Joins rejected while degraded", (), ()),
            "leaves": ("osu_serve_leaves_total",
                       "Runtime subscriber leaves", (), ()),
            "fault_ops": ("osu_serve_fault_injections_total",
                          "Runtime fault-schedule injections", (), ()),
            "degrade_transitions": (
                "osu_serve_degrade_transitions_total",
                "Degraded-mode transitions", (), ()),
        }
        name, help, extra_names, extra_values = names[key]
        return self.registry.counter(
            name, help, ("cell",) + extra_names) \
            .labels(*((self.name,) + extra_values))

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount
        self._counter_metric(key).inc(amount)

    # -- lifecycle ---------------------------------------------------------

    def start(self, resume: bool = False) -> None:
        """Build the cell; under ``resume``, replay the journal first.

        Raises :class:`~repro.serve.journal.JournalLockedError` when
        another live process owns the journal,
        :class:`~repro.engine.checkpoint.JournalCorruptError` when a
        committed journal record does not parse, and
        :class:`ResumeIntegrityError` when replay diverges from the
        journaled snapshot.
        """
        self.journal.acquire()
        log: Optional[ServiceLog] = None
        if resume and self.journal.exists():
            log = self.journal.load()
            header = log.header
            if header is None:
                log = None  # nothing recoverable; start fresh
                self.journal.reset()
            elif header.get("config_sha256") != self.config_sha256:
                raise ServiceError(
                    f"{self.journal.path} belongs to a different cell "
                    f"config ({header.get('config_sha256')!r} != "
                    f"{self.config_sha256!r}); refusing to resume")
        if not resume:
            self.journal.reset()  # a fresh service restarts the name
        self._build()
        if log is not None:
            self.state = REPLAYING
            self._replay(log)
            self.journal.append_event("resumed", self.cycle)
        else:
            self.journal.write_header(
                self.config_sha256, _canonical(self.cell_config),
                _canonical(self.serve_config))
            self.journal.append_event("started", self.cycle)
        self._resumed_at_cycle = self.cycle
        self._violations_at_resume = \
            int(self.run.stats.invariant_violations)
        self.heartbeat = time.monotonic()
        self.state = RUNNING

    def _build(self) -> None:
        self.run = build_cell(self.cell_config)
        self.recorder = TimelineRecorder(
            self.run, registry=self.registry,
            metric_labels={"cell": self.name})
        if self.run.sources:
            self._base_uplink = self.run.sources[0].mean_interarrival
        if self.run.forward_sources:
            self._base_forward = \
                self.run.forward_sources[0].mean_interarrival

    def shutdown(self, clean: bool = True) -> None:
        """Drain point: final snapshot + shutdown event, release lock."""
        if clean and self.run is not None:
            self.journal.append_snapshot(
                self.cycle, self._sim_counters(), dict(self.counters))
            self.journal.append_event("shutdown", self.cycle,
                                      clean=True)
        self.journal.close()
        if self.state not in (FAILED,):
            self.state = STOPPED

    def cancel(self) -> None:
        """Watchdog takeover: the worker must stop touching the journal."""
        self.cancelled.set()

    # -- the cycle loop ----------------------------------------------------

    def step_cycle(self) -> None:
        """Advance exactly one notification cycle."""
        if self.cancelled.is_set():
            raise Cancelled()
        for op in self._drain_ops():
            self._apply_op(op, journal=True, count=True)
        self._run_one_cycle()
        self._after_cycle(journal=True)

    def _run_one_cycle(self) -> None:
        boundary = (self.cycle + 1) * timing.CYCLE_LENGTH
        self.run.sim.run(until=boundary)
        self.cycle += 1

    def _after_cycle(self, journal: bool) -> None:
        recorder = self.recorder
        if recorder.points:
            point = recorder.points[-1]
            self.history.append({
                "cycle": point.cycle,
                "invariant_violations": point.invariant_violations,
                "gps_min_margin_s": point.gps_min_margin_s,
                "registered_data": point.registered_data,
                "registered_gps": point.registered_gps,
            })
            # The recorder's own list is unbounded ground truth for
            # batch runs; a soak only needs the ring above.
            if len(recorder.points) > 2 * self.history.maxlen:
                del recorder.points[:self.history.maxlen]
        if self.probe is not None:
            self.probe["report"] = stabilize.assess(
                self.history, self.probe["burst_end_cycle"],
                self.probe["window"])
        self._cycles_total().inc()
        if journal:
            if self.cancelled.is_set():
                raise Cancelled()  # the replacement owns the tail now
            if self.cycle % self.serve_config.checkpoint_every == 0:
                self.journal.append_snapshot(
                    self.cycle, self._sim_counters(),
                    dict(self.counters))

    def _sim_counters(self) -> Dict[str, int]:
        """Cumulative, replay-comparable counters of the simulation."""
        stats = self.run.stats
        bs = self.run.base_station
        return {
            "registration_attempts": int(stats.registration_attempts),
            "registrations_completed":
                int(stats.registrations_completed),
            "lease_evictions": int(stats.lease_evictions),
            "evictions_detected": int(stats.evictions_detected),
            "invariant_violations": int(stats.invariant_violations),
            "faults_injected": int(stats.faults_injected),
            "cf_losses": int(stats.cf_losses),
            "uplink_transmissions":
                int(bs.reverse.total_transmissions),
            "uplink_collisions": int(bs.reverse.total_collisions),
        }

    # -- control-plane enqueue (any thread) --------------------------------

    def _enqueue(self, op: Dict[str, Any]) -> Dict[str, Any]:
        with self._ops_lock:
            self._pending_ops.append(op)
        return op

    def _drain_ops(self) -> List[Dict[str, Any]]:
        with self._ops_lock:
            ops, self._pending_ops = self._pending_ops, []
        return ops

    def enqueue_load(self, factor: float) -> Dict[str, Any]:
        factor = float(factor)
        if not 0.01 <= factor <= 100.0:
            raise ServiceError(
                f"load factor {factor} outside [0.01, 100]")
        return self._enqueue({"op": "load", "factor": factor})

    def enqueue_join(self, service: str) -> Dict[str, Any]:
        if service not in ("data", "gps"):
            raise ServiceError(f"unknown service {service!r}")
        if self.admission.degraded:
            self._count("joins_shed")
            raise DegradedError(
                f"{self.name} is degraded (lag {self.lag_s:.2f}s); "
                f"new registrations are shed")
        with self._ops_lock:
            population = (len(self.run.data_users)
                          if service == "data"
                          else len(self.run.gps_units))
            if service == "gps" \
                    and population + self._pending_joins["gps"] \
                    >= timing.MAX_GPS_USERS:
                raise ServiceError(
                    f"GPS population is at the protocol maximum "
                    f"({timing.MAX_GPS_USERS})")
            index = population + self._pending_joins[service]
            self._pending_joins[service] += 1
            op = {"op": "join", "service": service, "index": index,
                  "name": f"{service}-{index}"}
            self._pending_ops.append(op)
        return op

    def enqueue_leave(self, who: str) -> Dict[str, Any]:
        known = {sub.name for sub in
                 self.run.data_users + self.run.gps_units}
        if who not in known:
            raise ServiceError(f"no subscriber named {who!r}")
        return self._enqueue({"op": "leave", "name": who})

    def enqueue_faults(self, spec_text: str, probe: bool = False,
                       window: Optional[int] = None) -> Dict[str, Any]:
        """Inject a fault-schedule fragment, cycles relative to now."""
        specs = parse_faults(spec_text)  # validates grammar eagerly
        if not specs:
            raise ServiceError("empty fault schedule")
        op: Dict[str, Any] = {
            "op": "faults",
            "specs": [{"kind": spec.kind, "at_cycle": spec.at_cycle,
                       "target": spec.target,
                       "duration_cycles": spec.duration_cycles,
                       "loss": spec.loss, "channel": spec.channel}
                      for spec in specs],
        }
        if probe:
            op["probe_window"] = int(
                window or self.serve_config.stabilize_window)
        return self._enqueue(op)

    def request_stall(self, seconds: float) -> None:
        """Test hook: wedge the worker (never journaled -- a stall has
        no simulator-state footprint, so replay is unaffected)."""
        with self._ops_lock:
            self._stall_s = max(self._stall_s, float(seconds))

    def take_stall(self) -> float:
        with self._ops_lock:
            seconds, self._stall_s = self._stall_s, 0.0
        return seconds

    # -- op application (worker thread / replay) ---------------------------

    def _apply_op(self, op: Dict[str, Any], journal: bool,
                  count: bool) -> None:
        if journal:
            self.journal.append_control(self.cycle, op)
        kind = op["op"]
        if kind == "load":
            self.dial = float(op["factor"])
            self._apply_rates()
        elif kind == "degrade":
            self.degraded = bool(op["on"])
            # Replay must re-establish the controller's mode too.
            self.admission.degraded = self.degraded
            self._apply_rates()
            self._gauge("osu_serve_degraded",
                        "1 while shedding load").set(
                            1.0 if self.degraded else 0.0)
            if count:
                self._count("degrade_transitions")
        elif kind == "join":
            self._apply_join(op, count)
        elif kind == "leave":
            self._apply_leave(op, count)
        elif kind == "faults":
            self._apply_faults(op, count)
        else:
            raise ServiceError(f"unknown control op {kind!r}")

    def _apply_rates(self) -> None:
        scale = self.dial * (self.serve_config.degrade_factor
                             if self.degraded else 1.0)
        if self._base_uplink is not None:
            for source in self.run.sources:
                source.mean_interarrival = self._base_uplink / scale
        if self._base_forward is not None:
            for source in self.run.forward_sources:
                source.mean_interarrival = self._base_forward / scale

    def _apply_join(self, op: Dict[str, Any], count: bool) -> None:
        service = op["service"]
        with self._ops_lock:
            if self._pending_joins[service] > 0:
                self._pending_joins[service] -= 1
        if service == "data":
            expected = len(self.run.data_users)
            subscriber = attach_data_user(self.run)
        else:
            expected = len(self.run.gps_units)
            subscriber = attach_gps_unit(self.run)
        if op["index"] != expected or subscriber.name != op["name"]:
            raise ResumeIntegrityError(
                f"join replay divergence: journal says "
                f"{op['name']} (index {op['index']}), live cell "
                f"produced {subscriber.name} (index {expected})")
        if count:
            self._count(f"joins_{service}")

    def _apply_leave(self, op: Dict[str, Any], count: bool) -> None:
        for sub in self.run.data_users + self.run.gps_units:
            if sub.name == op["name"]:
                if sub.alive:
                    # Power-off; the liveness lease reclaims the UID.
                    sub.crash()
                if count:
                    self._count("leaves")
                return

    def _apply_faults(self, op: Dict[str, Any], count: bool) -> None:
        specs = tuple(
            FaultSpec(kind=raw["kind"],
                      at_cycle=self.cycle + int(raw["at_cycle"]),
                      target=raw["target"],
                      duration_cycles=int(raw["duration_cycles"]),
                      loss=float(raw["loss"]),
                      channel=raw["channel"])
            for raw in op["specs"])
        shim = replace(self.run.config, faults=specs,
                       check_invariants=False)
        # The injector lives on in its pending simulator events only;
        # its storm windows join each target's one StormGate.
        FaultInjector(self.run.sim, shim,
                      self.run.data_users + self.run.gps_units,
                      self.run.stats)
        if count:
            self._count("fault_ops")
        window = op.get("probe_window")
        if window:
            burst_end = max(spec.at_cycle + spec.duration_cycles
                            for spec in specs)
            self.probe = {"armed_at_cycle": self.cycle,
                          "burst_end_cycle": burst_end,
                          "window": int(window), "report": None}

    # -- lag / degradation (supervisor thread) -----------------------------

    def note_lag(self, lag_s: float) -> None:
        self.lag_s = max(0.0, lag_s)
        self._lag_gauge().set(self.lag_s)
        transition = self.admission.update(lag_s)
        if transition is not None:
            # Applied (and journaled) at the next cycle boundary so
            # replay reproduces it; shedding starts immediately via
            # ``admission.degraded``.
            self._enqueue({"op": "degrade", "on": transition})

    # -- resume ------------------------------------------------------------

    def _replay(self, log: ServiceLog) -> None:
        snap = log.snapshot
        snap_cycle = log.snapshot_cycle
        target = log.resume_cycle
        ops_by_cycle: Dict[int, List[Dict[str, Any]]] = {}
        for record in log.ops:
            ops_by_cycle.setdefault(
                int(record["cycle"]), []).append(record["op"])
        if snap:
            # Serve counters are not derivable from the sim; restore
            # them, then let post-snapshot ops re-count on top.
            for key, value in snap.get("serve", {}).items():
                if key in self.counters:
                    self.counters[key] = int(value)
                    self._counter_metric(key).inc(int(value))
        while True:
            for op in ops_by_cycle.pop(self.cycle, []):
                self._apply_op(op, journal=False,
                               count=self.cycle >= snap_cycle)
            if self.cycle >= target:
                break
            self._run_one_cycle()
            self._after_cycle(journal=False)
            self.heartbeat = time.monotonic()  # replay is progress
            if snap and self.cycle == snap_cycle:
                self._verify_snapshot(snap)

    def _verify_snapshot(self, snap: Dict[str, Any]) -> None:
        live = self._sim_counters()
        recorded = snap.get("counters", {})
        diffs = [f"{key}: journal {recorded[key]} != replay "
                 f"{live[key]}"
                 for key in sorted(set(live) & set(recorded))
                 if int(live[key]) != int(recorded[key])]
        if diffs:
            raise ResumeIntegrityError(
                f"replay of {self.journal.path} diverged at cycle "
                f"{self.cycle}: " + "; ".join(diffs))

    # -- status ------------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self.state == RUNNING

    def status(self) -> Dict[str, Any]:
        run = self.run
        stats = run.stats if run is not None else None
        violations = int(stats.invariant_violations) if stats else 0
        since_resume = violations - self._violations_at_resume
        window = self.serve_config.stabilize_window
        cycles_since_resume = self.cycle - self._resumed_at_cycle
        return {
            "name": self.name,
            "state": self.state,
            "error": self.error,
            "cycle": self.cycle,
            "degraded": self.admission.degraded,
            "dial": self.dial,
            "lag_s": round(self.lag_s, 4),
            "worst_lag_s": round(self.admission.worst_lag_s, 4),
            "counters": dict(self.counters),
            "invariant_violations_total": violations,
            "resumed_at_cycle": self._resumed_at_cycle,
            "cycles_since_resume": cycles_since_resume,
            "violations_since_resume": since_resume,
            #: The self-stabilization acceptance bit: K cycles after
            #: (re)start the monitor has recorded nothing new.
            "resume_clean": (since_resume == 0
                             if cycles_since_resume >= window
                             else None),
            "registered_data": (
                run.base_station.registration.active_data
                if run is not None else 0),
            "registered_gps": (
                run.base_station.registration.active_gps
                if run is not None else 0),
            "population_data": len(run.data_users) if run else 0,
            "population_gps": len(run.gps_units) if run else 0,
            "stabilize": (dict(self.probe) if self.probe is not None
                          else None),
            "journal": self.journal.path,
        }


def _canonical(obj: Any) -> Any:
    from repro.engine.hashing import canonical

    return canonical(obj)

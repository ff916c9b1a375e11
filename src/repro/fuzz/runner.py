"""Executing one fuzz case and producing its verdict.

:func:`run_fuzz_case` is a module-level task function -- picklable by
reference -- so a campaign hands it straight to the run engine as a
``Point`` and inherits the engine's process pool, per-point timeouts,
retries, and crash salvage.  A hang or crash inside a hostile case is
therefore a *finding* (a ``harness:*`` bucket, via the engine's
``PointFailure`` records), never a campaign abort.

Cell-mode cases run like any experiment point: build, run, finalize,
judge.  Serve-mode cases drive a real :class:`~repro.serve.service.
CellService` -- journal, cycle stepping, control-op validation and all
-- against a throwaway journal directory, exercising the exact code
path operators use, then judge the underlying run the same way.
"""

from __future__ import annotations

import tempfile
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from repro.core.cell import build_cell, finalize_run
from repro.faults.schedule import parse_faults
from repro.fuzz.case import MODE_SERVE, FuzzCase
from repro.fuzz.oracles import (
    Observation,
    ReleaseHearing,
    bucket_of,
    evaluate,
    watch_hearing,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TimelineRecorder

VERDICT_SCHEMA = "repro/fuzz-verdict@1"

#: Summary keys carried into the verdict (triage context, not oracle
#: input -- the oracles see the live objects).
_SUMMARY_KEYS = ("utilization", "message_loss_rate",
                 "gps_deadline_misses", "lease_evictions",
                 "evictions_detected", "recoveries",
                 "invariant_violations", "faults_injected")


def run_fuzz_case(case: FuzzCase) -> Dict[str, Any]:
    """Run one case under the full oracle stack; returns the verdict.

    The verdict is plain JSON (the engine may cache it, the corpus
    stores it).  Exceptions propagate -- the engine's salvage turns
    them into structured failures; direct callers (the shrinker)
    catch them.
    """
    if case.mode == MODE_SERVE:
        obs = _observe_serve(case)
    else:
        obs = _observe_cell(case)
    violations = evaluate(obs)
    bucket = bucket_of(violations)
    summary = obs.run.stats.summary()
    return {
        "schema": VERDICT_SCHEMA,
        "case": case.to_json(),
        "ok": bucket is None,
        "bucket": bucket,
        "violations": [violation.to_json()
                       for violation in violations],
        "summary": {key: summary[key] for key in _SUMMARY_KEYS
                    if key in summary},
    }


def _observe_cell(case: FuzzCase) -> Observation:
    config = case.cell_config()
    run = build_cell(config)
    recorder = TimelineRecorder(run,
                                registry=MetricsRegistry(enabled=False))
    hearing: Dict[int, ReleaseHearing] = {}
    watch_hearing(run, hearing)
    run.sim.run(until=config.duration)
    finalize_run(run)
    return Observation(case=case, run=run, recorder=recorder,
                       cycles=config.cycles,
                       scheduled=config.faults,
                       hearing=hearing)


def _observe_serve(case: FuzzCase) -> Observation:
    from repro.serve.config import ServeConfig
    from repro.serve.service import CellService, ServiceError

    config = case.cell_config()
    lease = config.liveness_lease_cycles or 8
    ops_by_cycle: Dict[int, List[Tuple[str, str]]] = defaultdict(list)
    for cycle, kind, argument in case.ops:
        ops_by_cycle[cycle].append((kind, argument))

    disturbances: List[Tuple[int, int]] = []
    hearing: Dict[int, ReleaseHearing] = {}
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        serve_config = ServeConfig(
            name=f"fuzz-{case.case_id}", cells=1, cycle_period_s=0.0,
            checkpoint_every=1_000_000, journal_root=tmp)
        service = CellService("cell0", config, serve_config,
                              registry=MetricsRegistry(enabled=False))
        service.start(resume=False)
        try:
            for cycle in range(case.cycles):
                for kind, argument in ops_by_cycle.get(cycle, ()):
                    try:
                        _enqueue(service, kind, argument)
                    except ServiceError:
                        # A rejected op (GPS cap, unknown name) is a
                        # legal outcome of a generated sequence, not a
                        # harness failure.
                        continue
                    disturbances.append(
                        _disturbance(cycle, kind, argument, lease))
                # A unit that joins during a step is watched from the
                # next one.  It must register before the base station
                # can release its record, so the sets it hears before
                # the watch sees them never follow a release.
                watch_hearing(service.run, hearing)
                service.step_cycle()
            run = service.run
            finalize_run(run)
        finally:
            service.shutdown(clean=True)

    return Observation(case=case, run=run, recorder=service.recorder,
                       cycles=case.cycles,
                       scheduled=(),
                       runtime_disturbances=tuple(disturbances),
                       hearing=hearing)


def _enqueue(service: Any, kind: str, argument: str) -> None:
    if kind == "load":
        service.enqueue_load(float(argument))
    elif kind == "join":
        service.enqueue_join(argument)
    elif kind == "leave":
        service.enqueue_leave(argument)
    elif kind == "faults":
        service.enqueue_faults(argument)
    else:
        raise ValueError(f"unknown control op {kind!r}")


def _disturbance(cycle: int, kind: str, argument: str,
                 lease: int) -> Tuple[int, int]:
    """The absolute cycle window an op may legitimately perturb."""
    if kind == "faults":
        end = max(cycle + spec.at_cycle + spec.duration_cycles
                  for spec in parse_faults(argument))
        return (cycle, end + lease)
    if kind == "leave":
        return (cycle, cycle + lease + 2)
    # Joins perturb contention briefly; load dials change queueing but
    # are excused for one settle window anyway.
    return (cycle, cycle + 2)

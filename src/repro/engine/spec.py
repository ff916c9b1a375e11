"""Declarative run specs and the engine entry point.

A :class:`RunSpec` is a named list of :class:`Point` -- each point is a
module-level task function plus one picklable config -- with an optional
reducer that folds the per-point results into the experiment's rows.
:func:`execute` evaluates a spec on the chosen executor (serial or
parallel), consulting the on-disk cache first, and records telemetry.

Because points are self-contained (each carries its own seed inside its
config), serial and parallel execution of the same spec produce
bit-identical results, and a cached value is indistinguishable from a
recomputed one.

Fault tolerance: ``execute`` runs under a
:class:`~repro.engine.policy.RunPolicy` (per-point timeouts, retries,
fail-fast): its ``policy`` argument, else the CLI-installed default.
Completed points are stored in the result cache *as they finish*, so a
killed sweep rerun with the same cache recomputes only the unfinished
points.  Points that exhaust their attempts are salvaged as
:class:`~repro.engine.policy.PointFailure` records on the
:class:`RunResult` (and skipped by the reducer) instead of aborting
the sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import resolve_cache
from repro.engine.executors import MapReport, PointOutcome, get_executor
from repro.engine.hashing import point_key
from repro.engine.policy import PointFailure, RunPolicy, resolve_policy
from repro.engine.telemetry import EngineStats, telemetry


@dataclass(frozen=True)
class Point:
    """One independent unit of work in a spec.

    ``fn`` must be a module-level callable (picklable by reference) that
    accepts ``config`` as its single argument and returns
    JSON-serializable data (so the result can be cached).  ``label``
    carries the point's grid coordinates for reducers to group by.

    A config may expose ``work``, a number proportional to the point's
    expected cost (a fuzz case's subscriber-cycles, say).  At ``jobs >=
    2`` the pool hands out points largest work first, so the heaviest
    do not start last; configs without it rank as 0 and keep task
    order.  Results stay in task order either way.
    """

    fn: Callable[[Any], Any]
    config: Any
    label: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunSpec:
    """A named grid of points plus an optional reducer.

    ``reducer(values, points)`` receives the per-point results (aligned
    with ``points``) and returns whatever the experiment's formatter
    consumes (typically a list of table rows or grouped dicts).
    """

    name: str
    points: Tuple[Point, ...]
    reducer: Optional[Callable[[List[Any], Tuple[Point, ...]], Any]] = None


@dataclass
class RunResult:
    """What ``execute`` returns: raw values, reduction, accounting.

    ``values`` is aligned with ``spec.points``; a point that exhausted
    its attempts holds ``None`` there and a :class:`PointFailure` in
    ``failures`` (the reducer only ever sees the successful points).
    """

    spec: RunSpec
    values: List[Any]
    stats: EngineStats
    reduced: Any = None
    failures: List[PointFailure] = field(default_factory=list)

    def failure_report(self) -> Dict[str, Any]:
        """The structured partial-failure report for this run."""
        return {
            "spec": self.spec.name,
            "points": len(self.spec.points),
            "failed": [failure.to_json() for failure in self.failures],
        }


def execute(spec: RunSpec,
            jobs: Optional[int] = None,
            cache: Any = None,
            policy: Optional[RunPolicy] = None) -> RunResult:
    """Evaluate every point of ``spec`` and reduce.

    ``jobs``: ``None`` or 1 = serial, N >= 2 = process pool.
    ``cache``: ``None`` or ``True`` = on, ``False`` = off, or a
    :class:`~repro.engine.cache.ResultCache` to use.  ``policy``
    controls fault tolerance (see :mod:`repro.engine.policy`).
    """
    started = time.perf_counter()
    run_policy = resolve_policy(policy)
    executor = get_executor(jobs)
    store = resolve_cache(cache)

    count = len(spec.points)
    values: List[Any] = [None] * count
    seconds: List[float] = [0.0] * count
    keys = [point_key(point.fn, point.config)
            for point in spec.points]

    quarantined_before = store.quarantined if store is not None else 0
    pending: List[int] = []
    for index, key in enumerate(keys):
        if store is not None:
            hit, value = store.get(key)
            if hit:
                values[index] = value
                continue
        pending.append(index)

    report = MapReport()
    if pending:

        def on_outcome(outcome: PointOutcome) -> None:
            # Runs in this process the moment a point resolves, so a
            # killed sweep, rerun, finds its finished points cached.
            grid_index = pending[outcome.index]
            if outcome.failure is not None:
                outcome.failure.index = grid_index
                outcome.failure.key = keys[grid_index]
                outcome.failure.label = \
                    dict(spec.points[grid_index].label)
                return
            values[grid_index] = outcome.value
            seconds[grid_index] = outcome.seconds
            if store is not None:
                store.put(keys[grid_index], outcome.value)

        tasks = [(spec.points[index].fn, spec.points[index].config)
                 for index in pending]
        report = executor.map(tasks, policy=run_policy,
                              on_outcome=on_outcome)

    failures = report.failures
    stats = EngineStats(
        spec=spec.name,
        points=count,
        executed=len(pending),
        cache_hits=count - len(pending),
        jobs=executor.jobs,
        retries=report.retries,
        timeouts=report.timeouts,
        respawns=report.respawns,
        quarantined=(store.quarantined - quarantined_before
                     if store is not None else 0),
        failures=list(failures),
        wall_s=time.perf_counter() - started,
        point_seconds=seconds)
    telemetry.record(stats)

    result = RunResult(spec=spec, values=values, stats=stats,
                       failures=list(failures))
    if spec.reducer is not None:
        if failures:
            failed = {failure.index for failure in failures}
            survivors = [index for index in range(count)
                         if index not in failed]
            result.reduced = spec.reducer(
                [values[index] for index in survivors],
                tuple(spec.points[index] for index in survivors))
        else:
            result.reduced = spec.reducer(values, spec.points)
    return result


# -- common point/reducer building blocks ----------------------------------


def run_cell_summary(config) -> Dict[str, float]:
    """Task: simulate one cell and return its summary dict."""
    from repro.core.cell import run_cell

    return run_cell(config).summary()


def cell_point(config, **label: Any) -> Point:
    """A point that runs one :class:`~repro.core.config.CellConfig`."""
    return Point(fn=run_cell_summary, config=config, label=dict(label))


def mean_of_summaries(summaries: Sequence[Dict[str, float]]
                      ) -> Dict[str, float]:
    """Field-wise mean over the keys *common to all* summaries.

    Keys missing from some summaries are dropped rather than raising.
    """
    if not summaries:
        return {}
    common = set(summaries[0])
    for summary in summaries[1:]:
        common &= set(summary)
    return {key: sum(summary[key] for summary in summaries)
            / len(summaries)
            for key in summaries[0] if key in common}


def group_means(values: Sequence[Dict[str, float]],
                points: Sequence[Point],
                by: Sequence[str]) -> List[Dict[str, Any]]:
    """Average summary dicts over every label *not* in ``by``.

    Returns one dict per distinct ``by``-coordinate (in first-seen
    order) containing the averaged summary fields plus the ``by`` labels
    themselves -- the standard "average over seeds" reduction.
    """
    grouped: Dict[Tuple[Any, ...], List[Dict[str, float]]] = {}
    order: List[Tuple[Any, ...]] = []
    for value, point in zip(values, points):
        coordinate = tuple(point.label.get(name) for name in by)
        if coordinate not in grouped:
            grouped[coordinate] = []
            order.append(coordinate)
        grouped[coordinate].append(value)
    rows: List[Dict[str, Any]] = []
    for coordinate in order:
        row = mean_of_summaries(grouped[coordinate])
        row.update(dict(zip(by, coordinate)))
        rows.append(row)
    return rows

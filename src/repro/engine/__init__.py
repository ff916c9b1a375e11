"""Unified, fault-tolerant run engine for all experiments.

Every table/figure of the evaluation is regenerated from a grid of
*independent* simulation points (load x seed x scenario).  The engine
makes that structure explicit and shared:

* :class:`~repro.engine.spec.RunSpec` -- a declarative list of
  :class:`~repro.engine.spec.Point` (a picklable task function plus its
  config) with an optional reducer, so an experiment module is a spec
  plus a table formatter instead of bespoke nested loops.
* :mod:`~repro.engine.executors` -- pluggable serial and parallel
  executors (``--jobs N``) that produce bit-identical results for the
  same spec.  The parallel one runs on the
  :class:`~repro.engine.executors.WorkerPool` the city's shards also
  use: a crash or timeout respawns only the worker that ran the point,
  and workers exit on EOF, so a killed run leaves no orphans.
* :mod:`~repro.engine.policy` -- the :class:`RunPolicy` resilience
  knobs (``--timeout/--retries/--fail-fast``) and the structured
  :class:`PointFailure` salvage record.
* :mod:`~repro.engine.checkpoint` -- the durable ``AppendLog`` the
  service and city journals are built on.
* :mod:`~repro.engine.cache` -- an on-disk result cache under
  ``.repro-cache/`` keyed by a content hash of the point's config plus a
  fingerprint of the package source, so repeated invocations skip
  simulations that already ran and a SIGKILLed sweep, rerun, recomputes
  only the unfinished points; corrupt entries are quarantined and
  orphaned temp files scavenged.
* :mod:`~repro.engine.telemetry` -- per-execution instrumentation
  (points executed, cache hits, retries, timeouts, worker respawns,
  failures, per-point wall-clock) surfaced by
  ``python -m repro.experiments``.
"""

from repro.engine.cache import ResultCache, default_cache_dir, resolve_cache
from repro.engine.checkpoint import default_journal_dir
from repro.engine.executors import (
    MapReport,
    ParallelExecutor,
    PointOutcome,
    SerialExecutor,
    get_executor,
    resolve_jobs,
)
from repro.engine.hashing import canonical, code_fingerprint, point_key
from repro.engine.policy import (
    PointFailure,
    PointFailureError,
    RunPolicy,
    resolve_policy,
    set_default_policy,
)
from repro.engine.seeding import derive_seed
from repro.engine.spec import (
    Point,
    RunResult,
    RunSpec,
    cell_point,
    execute,
    group_means,
)
from repro.engine.telemetry import EngineStats, telemetry

__all__ = [
    "EngineStats",
    "MapReport",
    "ParallelExecutor",
    "Point",
    "PointFailure",
    "PointFailureError",
    "PointOutcome",
    "ResultCache",
    "RunPolicy",
    "RunResult",
    "RunSpec",
    "SerialExecutor",
    "canonical",
    "cell_point",
    "code_fingerprint",
    "default_cache_dir",
    "default_journal_dir",
    "derive_seed",
    "execute",
    "get_executor",
    "group_means",
    "point_key",
    "resolve_cache",
    "resolve_jobs",
    "resolve_policy",
    "set_default_policy",
    "telemetry",
]

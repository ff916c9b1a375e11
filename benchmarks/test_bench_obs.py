"""Overhead guard for the observability subsystem.

The contract ``docs/OBSERVABILITY.md`` documents: a timeline-recorded
run (the ``--metrics`` path) stays within ~5% of an uninstrumented
run, and the disabled-registry publish path is free (structurally a
no-op).  ``--profile`` is pay-to-measure and has no budget; its cost
is given in ``docs/OBSERVABILITY.md``.  The hard assertions below are
deliberately looser than the 5% budget (:data:`HARD_BOUND`) so CI
jitter does not produce false alarms; the measured ratios are printed
either way, so drift is visible even when they stay under the bound.
Performance numbers of record come from ``python3 bench/run.py``.

Timings interleave the plain and instrumented variants round by round
and keep the best of each, which cancels most machine noise.  Run with
``PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py -s``.
"""

from __future__ import annotations

import json
import time

from repro.core.cell import build_cell, finalize_run, run_cell
from repro.core.config import CellConfig
from repro.obs.profiler import profile_call
from repro.obs.registry import NULL_CHILD, MetricsRegistry
from repro.obs.timeline import TimelineRecorder

#: The documented overhead target (fraction of the plain wall-clock).
BUDGET = 0.05

#: The assert bound for the --metrics path: loose enough for CI noise,
#: tight enough that a real regression (a per-event hook on a hot
#: path) still trips.
HARD_BOUND = 1.15

ROUNDS = 5

CELL = dict(num_data_users=9, num_gps_users=4, load_index=0.8,
            cycles=120, warmup_cycles=20, seed=1)


def _interleaved_best(variants, rounds=ROUNDS):
    """Best-of-N wall-clock per variant, interleaving the rounds."""
    best = {name: float("inf") for name in variants}
    for _ in range(rounds):
        for name, fn in variants.items():
            started = time.perf_counter()
            fn()
            best[name] = min(best[name],
                             time.perf_counter() - started)
    return best


def _plain():
    run_cell(CellConfig(**CELL))


def _instrumented(enabled_registry: bool):
    config = CellConfig(**CELL)
    run = build_cell(config)
    registry = MetricsRegistry(enabled=enabled_registry)
    TimelineRecorder(run, registry=registry)
    run.sim.run(until=config.duration)
    finalize_run(run)


def test_instrumented_run_overhead_within_bound():
    best = _interleaved_best({
        "plain": _plain,
        "timeline": lambda: _instrumented(False),
        "timeline_registry": lambda: _instrumented(True),
    })
    ratio = best["timeline"] / best["plain"]
    ratio_registry = best["timeline_registry"] / best["plain"]

    # Disabled-registry publish path: structurally free.
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("guard_total", "", ("k",))
    assert counter.labels(k="x") is NULL_CHILD
    publishes = 100_000
    started = time.perf_counter()
    for _ in range(publishes):
        counter.labels(k="x").inc()
    disabled_s = time.perf_counter() - started
    assert disabled_s < 1.0  # ~no-op per call even on slow CI

    record = {
        "benchmark": "timeline recorder (+ registry) vs plain run_cell",
        "cell": CELL,
        "rounds": ROUNDS,
        "budget": BUDGET,
        "hard_bound": HARD_BOUND,
        "plain_s": round(best["plain"], 4),
        "timeline_s": round(best["timeline"], 4),
        "timeline_registry_s":
            round(best["timeline_registry"], 4),
        "overhead_ratio": round(ratio, 4),
        "overhead_ratio_registry": round(ratio_registry, 4),
        "disabled_publish_ns":
            round(disabled_s / publishes * 1e9, 1),
    }
    print()
    print(json.dumps(record, indent=1))

    assert ratio < HARD_BOUND, (
        f"timeline-recorded run {ratio:.2f}x plain exceeds "
        f"{HARD_BOUND}x (budget {1 + BUDGET:.2f}x)")
    assert ratio_registry < HARD_BOUND + 0.05


def test_instrumentation_is_observationally_transparent():
    """Same seeds, same protocol outcome, hooks or no hooks."""
    config = CellConfig(**CELL)
    plain = run_cell(config).summary()
    run = build_cell(config)
    TimelineRecorder(run, registry=MetricsRegistry(enabled=True))
    profile_call(run.sim.run, until=config.duration)
    finalize_run(run)
    assert run.stats.summary() == plain

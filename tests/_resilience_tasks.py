"""Picklable task functions for the engine resilience tests.

These live in an importable module (not a test file) so process-pool
workers and the kill/resume subprocess can unpickle them by reference,
and so the kill/resume test can rebuild the *same* spec -- hence the
same point keys -- in both the victim subprocess and the resuming test
process.

The module also holds the deterministic executor-level fault injector.
It mirrors :mod:`repro.faults.injector` one layer down: where that
module crashes *simulated subscribers*, this one crashes the *worker
processes and tasks* that run them, so the engine's recovery machinery
(retries, timeouts, worker respawns, failure salvage) is exercised by
seed-stable schedules instead of real flakiness.

Wrap any task function in a :class:`FaultyTask`.  Whether a given point
is cursed -- and with which fault -- is a pure function of
``(plan.seed, canonical(config))``, so schedules are identical across
processes, interpreters, and ``--jobs`` settings.  Faults fire on
attempts ``1..faults_per_point`` and then stop, so a cursed point
always succeeds once the engine grants it enough attempts -- which is
what lets recovery tests demand bit-identity with a fault-free run.

Fault kinds:

* ``error`` -- raise :class:`InjectedFault` (the retry path; works
  under any executor).
* ``crash`` -- ``os._exit`` the worker process without any cleanup,
  the real shape of an OOM-kill (the dead-worker recovery path: the
  worker is respawned and the point re-run).  In the parent process
  (serial executor) it degrades to an ``error`` fault rather than
  killing the whole run.
* ``hang`` -- sleep ``hang_s`` before computing normally (the timeout
  path; only meaningful under the parallel executor with a timeout).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.engine import Point, RunSpec, canonical

KIND_CRASH = "crash"
KIND_HANG = "hang"
KIND_ERROR = "error"


class InjectedFault(RuntimeError):
    """The transient failure raised by ``error`` faults."""


def _unit(token: str) -> float:
    """A stable uniform draw in ``[0, 1)`` from a string token."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class ExecFaultPlan:
    """Seed-stable worker crash/hang/error schedule."""

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    #: Faults fire on this many leading attempts, then the point heals.
    faults_per_point: int = 1
    #: How long a ``hang`` fault stalls before computing normally.
    hang_s: float = 60.0

    def fault_for(self, config: Any) -> Optional[str]:
        """The fault kind scheduled for ``config`` (or ``None``)."""
        token = json.dumps([self.seed, canonical(config)],
                           sort_keys=True, separators=(",", ":"))
        draw = _unit(token)
        if draw < self.crash_rate:
            return KIND_CRASH
        if draw < self.crash_rate + self.hang_rate:
            return KIND_HANG
        if draw < self.crash_rate + self.hang_rate + self.error_rate:
            return KIND_ERROR
        return None

    def cursed(self, configs: Sequence[Any]) -> List[Any]:
        """The subset of ``configs`` scheduled to fault."""
        return [config for config in configs
                if self.fault_for(config) is not None]


@dataclass(frozen=True)
class FaultyTask:
    """A picklable task wrapper that injects its plan's faults."""

    fn: Callable[[Any], Any]
    plan: ExecFaultPlan

    #: Makes ``invoke`` pass the 1-based attempt number through.
    wants_attempt = True

    def __call__(self, config: Any, attempt: int = 1) -> Any:
        kind = self.plan.fault_for(config)
        if kind is not None and attempt <= self.plan.faults_per_point:
            self._fire(kind)
        return self.fn(config)

    def _fire(self, kind: str) -> None:
        if kind == KIND_CRASH:
            if multiprocessing.parent_process() is not None:
                os._exit(17)  # a worker: die without cleanup
            raise InjectedFault(
                "crash fault downgraded to an error in the parent "
                "process")
        if kind == KIND_HANG:
            time.sleep(self.plan.hang_s)
            return
        raise InjectedFault("scheduled transient failure")


def square(config: Dict[str, Any]) -> Dict[str, float]:
    value = float(config["x"])
    return {"x": value, "square": value * value}


def sleep_then_square(config: Dict[str, Any]) -> Dict[str, float]:
    """A point that takes ``config["sleep_s"]`` seconds of wall clock."""
    time.sleep(config["sleep_s"])
    return square(config)


def square_values(count: int) -> list:
    """The expected ``execute(...).values`` for an ``x = 0..count-1``
    grid (what a clean, fault-free run produces)."""
    return [square({"x": index}) for index in range(count)]


def exit_once_then_square(config: Dict[str, Any]) -> Dict[str, float]:
    """Kill the whole process the first time the marked point runs.

    ``os._exit`` skips every Python-level cleanup, so to the engine the
    first run looks exactly like a SIGKILL arriving mid-sweep; the
    marker file makes the next run (the resume) compute normally.
    """
    marker = config.get("exit_marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("died once\n")
        os._exit(9)
    return square(config)


def raise_keyboard_interrupt(config: Dict[str, Any]) -> None:
    """Simulate a Ctrl-C arriving inside a pool worker."""
    raise KeyboardInterrupt


def kill_spec(marker: str, count: int = 8,
              kill_index: int = 5) -> RunSpec:
    """A grid whose ``kill_index``-th point dies mid-sweep once."""
    points = []
    for index in range(count):
        config = {"x": index,
                  "exit_marker": marker if index == kill_index else ""}
        points.append(Point(fn=exit_once_then_square, config=config,
                            label={"x": index}))
    return RunSpec(name="kill-resume", points=tuple(points))


def grid_spec(count: int, fn=square, name: str = "resilience") -> RunSpec:
    """An ``x = 0..count-1`` grid over ``fn`` (default: ``square``)."""
    points = tuple(Point(fn=fn, config={"x": index},
                         label={"x": index})
                   for index in range(count))
    return RunSpec(name=name, points=points)

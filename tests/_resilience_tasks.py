"""Picklable task functions for the engine resilience tests.

These live in an importable module (not a test file) so process-pool
workers and the kill/resume subprocess can unpickle them by reference,
and so the kill/resume test can rebuild the *same* spec -- hence the
same point keys -- in both the victim subprocess and the resuming test
process.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from repro.engine import Point, RunSpec


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

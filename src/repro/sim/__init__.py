"""Discrete-event simulation kernel.

This package is a self-contained discrete-event simulation (DES)
engine.  It provides:

* :class:`~repro.sim.core.Simulator` -- the clock and one calendar of
  plain callbacks, scheduled with ``call_at`` and driven by ``run``.
* :class:`~repro.sim.rng.RandomStreams` -- named, independently seeded
  random-number streams for reproducible experiments.

Determinism: callbacks scheduled for the same simulation time fire in
FIFO order of scheduling, so a fixed seed yields a bit-identical
trajectory.
"""

from repro.sim.core import Simulator, SimulationError
from repro.sim.rng import RandomStreams

__all__ = [
    "RandomStreams",
    "Simulator",
    "SimulationError",
]

"""Host speed, for scaling wall times across a noisy shared host.

The benchmark host's speed drifts by up to 2x within minutes (other
tenants), and a pure-Python program slows down with it, in CPU time as
much as in wall time.  Every timed interval is therefore measured
together with the host's speed during that interval: a timer signal
runs a short fixed event loop every ``PERIOD_S`` while the interval is
open.  Where the program stops while a sample runs (one process, its
threads included), the time the samples take is subtracted from the
interval; where other processes keep working (an engine pool), nothing
is.  A wall time scaled by the sampled speed is what the same work
would take on a host of a fixed reference speed.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any, Callable, Dict, List

PERIOD_S = 0.02
SAMPLE_EVENTS = 500


class _Event:
    __slots__ = ("when", "key", "value")

    def __init__(self, when: int, key: int, value: int):
        self.when = when
        self.key = key
        self.value = value

    def fire(self, state: Dict[int, int]) -> int:
        state[self.key] = state.get(self.key, 0) + self.value
        return self.when + 1 + (self.value & 3)


def calibrate(events: int = 20_000,
              clock: Callable[[], float] = time.perf_counter) -> float:
    """Millions of events per second of a fixed pure-Python event loop
    (heap pop and push, a method call and a dict update per event, the
    operations the simulator's kernel is made of)."""
    started = clock()
    queue = [(index, index, _Event(index, index & 15, index))
             for index in range(64)]
    state: Dict[int, int] = {}
    for seq in range(64, 64 + events):
        when, _, event = heapq.heappop(queue)
        heapq.heappush(queue, (event.fire(state), seq,
                               _Event(when, seq & 15, seq)))
    return events / (clock() - started) / 1e6


class Sampler:
    """Samples host speed from SIGALRM between ``start`` and ``stop``.

    Only the main thread may use it.  ``spent_s`` is the time the
    samples took inside the interval; ``mops`` their mean speed.  Both
    are taken on the main thread's CPU clock: the host's slowness shows
    in CPU time as much as in wall time, but a program thread that
    takes the interpreter lock in the middle of a sample does not.
    """

    def __init__(self) -> None:
        self.speeds: List[float] = []
        self.spent_s = 0.0
        self._previous: Any = None

    def _sample(self, *_args: Any) -> None:
        started = time.thread_time()
        self.speeds.append(calibrate(SAMPLE_EVENTS, time.thread_time))
        self.spent_s += time.thread_time() - started

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.speeds:
            # An interval shorter than one period: sample right after.
            self.speeds.append(calibrate(SAMPLE_EVENTS, time.thread_time))

    @property
    def mops(self) -> float:
        return statistics.fmean(self.speeds)

"""The simulator event loop: one calendar of plain callbacks.

Everything the simulation does happens in a callable queued with
:meth:`Simulator.call_at`.  Periodic work (the base-station cycle, GPS
reports, traffic sources, per-cycle monitors) is a callback that
re-arms itself with ``call_at(now + period, ...)`` as its last step.
The MAC protocol's load is dominated by two patterns:

* **zero-delay callbacks** -- work due at the current instant, and
* **slot-aligned callbacks** -- work at the handful of exact slot
  boundary times that recur every 3.984375 s cycle, so many callbacks
  land on the *same* future timestamp.

The kernel therefore keeps three structures:

* ``_now_queue`` -- a FIFO of callables due exactly at ``now``;
  appending is the no-allocation fast path for the dominant zero-delay
  case,
* ``_calendar`` -- a dict mapping each distinct future timestamp to the
  callables due then.  Most buckets hold exactly one (slot boundaries
  are distinct floats), so a singleton is stored bare and only promoted
  to a list when a second one lands on the same timestamp -- no
  per-entry list allocation,
* ``_times`` -- a min-heap over the *distinct* timestamps only, pushed
  once per bucket creation.

Callbacks fire in ``(due time, enqueue sequence)`` order, the order of
a single binary heap keyed that way: callbacks enqueued at an earlier
simulated time carry smaller sequence numbers than anything enqueued
while the clock sits at the bucket's timestamp, bucket order is append
order, and zero-delay callbacks append behind the drained bucket.
``tests/test_sim_kernel.py`` states this contract as a property test
against such a heap, and the golden digests in ``tests/test_golden.py``
pin whole experiment outputs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Simulator:
    """Calendar-queue event loop with a floating-point clock starting at 0.

    An exception raised by a callback propagates out of :meth:`run`
    with the clock at the callback's time.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._now_queue: Deque[Callable[[], None]] = deque()
        #: timestamp -> callable (singleton bucket) or list of callables.
        self._calendar: Dict[float, Any] = {}
        self._times: List[float] = []

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run a plain callback at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self.now})")
        if when == self.now:
            self._now_queue.append(callback)
            return
        calendar = self._calendar
        bucket = calendar.get(when)
        if bucket is None:
            calendar[when] = callback
            heapq.heappush(self._times, when)
        elif type(bucket) is list:
            bucket.append(callback)
        else:
            calendar[when] = [bucket, callback]

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last callback fires earlier.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self.now})")
        queue = self._now_queue
        times = self._times
        calendar = self._calendar
        heappop = heapq.heappop
        while True:
            while queue:
                queue.popleft()()
            if not times:
                break
            when = times[0]
            if until is not None and when > until:
                break
            heappop(times)
            self.now = when
            bucket = calendar.pop(when)
            if type(bucket) is list:
                queue.extend(bucket)
            else:
                bucket()
        if until is not None and until > self.now:
            self.now = until

"""The simulator event loop and generator-based processes.

The event loop is a *slot-indexed calendar queue* rather than a single
binary heap, and what it queues are plain callables: a
:meth:`Simulator.call_at` callback as given, and the bound ``_process``
method of every triggered event.  The MAC protocol's load is dominated
by two patterns:

* **zero-delay triggers** -- ``succeed()``/``fail()`` calls and process
  resumptions that fire at the current instant, and
* **slot-aligned timeouts** -- wakeups at the handful of exact slot
  boundary times that recur every 3.984375 s cycle, so many events land
  on the *same* future timestamp.

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

Events fire in ``(due time, enqueue sequence)`` order, the order of a
single binary heap keyed that way: events enqueued at an earlier
simulated time carry smaller sequence numbers than anything enqueued
while the clock sits at the bucket's timestamp, bucket order is append
order, and zero-delay events append behind the drained bucket.
``tests/test_sim_kernel.py`` states this contract as a property test
against such a heap, and the golden digests in ``tests/test_golden.py``
pin whole experiment outputs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

from repro.sim.events import Event, Timeout

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt()``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class StopProcess(Exception):
    """Internal: raised via ``process.exit(value)`` to end a process early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Process(Event):
    """A generator coroutine driven by the simulator.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the exception that
    escaped the generator.  Processes wait by yielding events::

        def worker(sim):
            yield sim.timeout(1.0)
            got = yield store.get()
            return got

        proc = sim.process(worker(sim))
    """

    __slots__ = ("name", "_generator", "_waiting_on")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any],
                 name: Optional[str] = None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process target must be a generator, "
                            f"got {type(generator).__name__}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume the generator at time now.
        start = Event(sim)
        start._ok = True
        start._value = None
        start.add_callback(self._resume)
        sim._enqueue(start, 0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error.  The event the process
        was waiting on stays pending; the process may re-wait on it.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self.name}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None
        wake = Event(self.sim)
        wake._ok = False
        wake._value = Interrupt(cause)
        wake.add_callback(self._resume)
        self.sim._enqueue(wake, 0.0)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self.sim._active_process = self
        try:
            if event.ok:
                target = self._generator.send(event.value)
            else:
                target = self._generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except StopProcess as stop:
            self._generator.close()
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.sim.strict:
                self.succeed(None)  # mark dead so interrupt() can't target it
                raise
            self.fail(exc)
            return
        finally:
            self.sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                f"processes may only yield Event instances")
        self._waiting_on = target
        target.add_callback(self._resume)

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """Calendar-queue event loop with a floating-point clock starting at 0.

    Parameters
    ----------
    strict:
        When True (the default), an exception escaping a process propagates
        out of :meth:`run` immediately.  When False, the process simply
        fails as an event (useful when another process awaits it and
        handles the failure).
    """

    def __init__(self, strict: bool = True):
        self.now: float = 0.0
        self.strict = strict
        self._now_queue: Deque[Callable[[], None]] = deque()
        #: timestamp -> callable (singleton bucket) or list of callables.
        self._calendar: Dict[float, Any] = {}
        self._times: List[float] = []
        self._active_process: Optional[Process] = None

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event, triggered manually via succeed/fail."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None) -> Process:
        """Spawn a generator as a process; returns the process event."""
        return Process(self, generator, name=name)

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run a plain callback at absolute time ``when``.

        The callback itself is queued: no event wraps it, so nothing can
        wait on it.
        """
        if when < self.now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self.now})")
        # _enqueue inlined: call_at is the kernel's hottest entry point.
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

    # -- scheduling internals ------------------------------------------------

    def _enqueue(self, event: Event, delay: float) -> None:
        process = event._process
        if delay == 0.0:
            self._now_queue.append(process)
            return
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        when = self.now + delay
        if when == self.now:
            # A positive delay too small to move the float clock: due now.
            self._now_queue.append(process)
            return
        calendar = self._calendar
        bucket = calendar.get(when)
        if bucket is None:
            calendar[when] = process
            heapq.heappush(self._times, when)
        elif type(bucket) is list:
            bucket.append(process)
        else:
            calendar[when] = [bucket, process]

    # -- execution -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        if self._now_queue:
            return self.now
        return self._times[0] if self._times else _INF

    def step(self) -> None:
        """Run exactly one queued callable."""
        queue = self._now_queue
        if not queue:
            when = heapq.heappop(self._times)
            self.now = when
            bucket = self._calendar.pop(when)
            if type(bucket) is list:
                queue.extend(bucket)
            else:
                bucket()
                return
        queue.popleft()()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier.
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

    def run_process(self, process: Process,
                    until: Optional[float] = None) -> Any:
        """Run until ``process`` finishes; returns its value.

        Raises the process's exception if it failed, or
        :class:`SimulationError` if the queue drains (or ``until`` passes)
        before the process completes.
        """
        while not process.triggered:
            next_time = self.peek()
            if next_time == _INF:
                raise SimulationError(
                    f"queue drained before {process.name!r} finished")
            if until is not None and next_time > until:
                raise SimulationError(
                    f"{process.name!r} did not finish by t={until}")
            self.step()
        if not process.ok:
            raise process.value
        return process.value

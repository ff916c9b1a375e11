"""Waitable events for the DES kernel.

An :class:`Event` has a three-stage life cycle:

1. *pending* -- created but not yet triggered,
2. *triggered* -- a value (or exception) has been set and the event is on
   the simulator's queue,
3. *processed* -- the simulator has popped it and run its callbacks.

Processes wait on events by ``yield``-ing them; the kernel resumes the
process with the event's value (or throws the event's exception into it).

Every event class here carries ``__slots__``: a cell run creates tens of
thousands of events per simulated second, and dict-free instances are
both smaller and faster to allocate.  Subclasses that need extra
attributes declare their own slots (see
:class:`repro.sim.resources.Store`'s put event).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.core import Simulator

_UNSET = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Events are created pending and become triggered exactly once, via
    :meth:`succeed` or :meth:`fail`.  Triggering schedules the event on the
    simulator queue with zero delay; callbacks (including waiting
    processes) run when the simulator processes it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value or exception set."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception object, if it failed)."""
        if self._value is _UNSET:
            raise AttributeError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _UNSET:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if self._value is not _UNSET:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, 0.0)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run and clear the callback list (kernel internal)."""
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self.delay = delay
        sim._enqueue(self, delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")


class _Condition(Event):
    """Base for composite events (:class:`AnyOf` / :class:`AllOf`)."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Sequence[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        """Map each already-fired child event to its value.

        ``processed`` (not ``triggered``) is the right filter: a Timeout is
        *triggered* from the moment it is created, but it has not *fired*
        until the simulator processes it.
        """
        return {
            event: event.value for event in self.events if event.processed
        }


class AnyOf(_Condition):
    """Fires as soon as any child event fires.

    The value is a dict mapping the triggered child events to their values.
    A failing child fails the condition.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when all child events have fired.

    The value is a dict mapping every child event to its value.  The first
    failing child fails the condition immediately.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())

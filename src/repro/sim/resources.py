"""Queueing primitives: FIFO stores and counted resources."""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class _PutEvent(Event):
    """A put request carrying the item it wants to deposit.

    :class:`~repro.sim.events.Event` is ``__slots__``-only, so the item
    travels in a declared slot instead of an ad-hoc attribute.
    """

    __slots__ = ("item",)

    def __init__(self, sim: "Simulator", item: Any):
        super().__init__(sim)
        self.item = item


class Store:
    """An unbounded-or-bounded FIFO buffer of items.

    ``put(item)`` and ``get()`` both return events; processes yield them.
    A ``get`` on an empty store blocks until an item arrives; a ``put`` on
    a full store (when ``capacity`` is finite) blocks until space frees.
    """

    def __init__(self, sim: "Simulator", capacity: float = math.inf):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # events carrying .item

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` has been accepted."""
        event = _PutEvent(self.sim, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self.is_full and not self._getters:
            return False
        self.put(item)
        return True

    def get(self) -> Event:
        """Event that fires with the oldest item once one is available."""
        event = Event(self.sim)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when no item is buffered."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._dispatch()
        return item

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                self.items.append(putter.item)  # type: ignore[attr-defined]
                putter.succeed()
                progressed = True
            while self._getters and self.items:
                getter = self._getters.popleft()
                getter.succeed(self.items.popleft())
                progressed = True


class Resource:
    """A counted resource with FIFO waiters (like a semaphore).

    Usage::

        req = resource.request()
        yield req
        ...critical section...
        resource.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> Event:
        """Event that fires once a unit of the resource is held."""
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit; hands it straight to the oldest waiter."""
        if self.in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def cancel(self, request: Event) -> bool:
        """Withdraw a pending request; returns False if already granted."""
        try:
            self._waiters.remove(request)
            return True
        except ValueError:
            return False

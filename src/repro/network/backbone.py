"""The wired point-to-point backbone between base stations.

Base stations are pairwise connected by full-duplex wired links (the
paper's "wired point-to-point backbone network").  Each direction of a
link is a FIFO queue drained at the link's serialization rate, plus a
fixed propagation latency -- the standard store-and-forward model.
Compared to the 4.8 kbps reverse channel the backbone is fast, but it is
modelled honestly so that backbone queueing shows up under heavy
inter-cell traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Tuple

from repro.sim.core import Simulator

DeliveryHandler = Callable[[Any], None]


@dataclass
class _QueuedItem:
    item: Any
    size_bytes: int
    enqueued_at: float
    deliver: DeliveryHandler


class BackboneLink:
    """One direction of a wired link between two base stations."""

    def __init__(self, sim: Simulator, latency: float,
                 bandwidth_bytes_per_s: float):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth_bytes_per_s
        self._queue: Deque[_QueuedItem] = deque()
        self._busy = False
        self.items_carried = 0
        self.bytes_carried = 0
        self.total_queueing_delay = 0.0

    def send(self, item: Any, size_bytes: int,
             deliver: DeliveryHandler) -> None:
        """Enqueue ``item``; ``deliver(item)`` fires at arrival time."""
        self._queue.append(_QueuedItem(item=item, size_bytes=size_bytes,
                                       enqueued_at=self.sim.now,
                                       deliver=deliver))
        if not self._busy:
            self._busy = True
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        queued = self._queue.popleft()
        serialization = queued.size_bytes / self.bandwidth
        self.total_queueing_delay += self.sim.now - queued.enqueued_at
        self.items_carried += 1
        self.bytes_carried += queued.size_bytes
        # The link is busy for the serialization time; the item arrives
        # one propagation latency after serialization completes.
        done = self.sim.now + serialization
        self.sim.call_at(done, self._serve_next)
        self.sim.call_at(done + self.latency,
                         lambda: queued.deliver(queued.item))


class Backbone:
    """Pairwise wired connectivity between the network's base stations."""

    def __init__(self, sim: Simulator, latency: float = 0.005,
                 bandwidth_bytes_per_s: float = 1_250_000.0):
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth_bytes_per_s
        self._links: Dict[Tuple[int, int], BackboneLink] = {}

    def link(self, src: int, dst: int) -> BackboneLink:
        """The directed link src -> dst, created on first use."""
        if src == dst:
            raise ValueError("no self-links on the backbone")
        key = (src, dst)
        existing = self._links.get(key)
        if existing is None:
            existing = BackboneLink(self.sim, self.latency,
                                    self.bandwidth)
            self._links[key] = existing
        return existing

    def send(self, src: int, dst: int, item: Any, size_bytes: int,
             deliver: DeliveryHandler) -> None:
        self.link(src, dst).send(item, size_bytes, deliver)

    @property
    def total_items(self) -> int:
        return sum(link.items_carried for link in self._links.values())

    @property
    def total_bytes(self) -> int:
        return sum(link.bytes_carried for link in self._links.values())

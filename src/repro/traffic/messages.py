"""Poisson e-mail workload (Section 5).

The paper's simulation generates e-mail messages at each mobile data
subscriber as a Poisson process with mean interarrival time ``T``,
computed from the target load index ``rho``::

    rho = m * E[L] * C / (T * d * B)
    =>  T = m * E[L] * C / (rho * d * B)

with ``m`` data subscribers, mean message size ``E[L]`` bytes, cycle
length ``C``, ``d`` reverse data slots per cycle and ``B`` payload bytes
per slot.

Note the paper's ``T`` is the interarrival of the *aggregate* process
over all ``m`` subscribers divided per subscriber -- i.e. each subscriber
generates with mean interarrival ``T`` so the cell-wide generated volume
per cycle is ``m * E[L] * C / T = rho * d * B``.

Two message-size distributions are used (Section 5): fixed
``L = 120`` bytes, and variable lengths uniform on [40, 500] bytes
(mean 270; the paper quotes "an average packet size of 280 bytes").
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.core import Simulator


@dataclass
class Message:
    """One application-level message (e.g. a short e-mail)."""

    message_id: int
    size_bytes: int
    created_at: float
    owner: int = -1  # subscriber index / uid, filled by the consumer
    #: Destination EIN for inter-cell delivery (None = terminates at the
    #: base station, e.g. outbound e-mail to the wired internet).
    destination_ein: Optional[int] = None

    def fragments(self, payload_bytes: int) -> int:
        """Number of MAC packets needed to carry this message."""
        return max(1, -(-self.size_bytes // payload_bytes))


class MessageSizeDistribution:
    """Interface: message sizes in bytes."""

    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def mean_fragments(self, payload_bytes: int) -> float:
        """E[ceil(L / payload_bytes)]: mean MAC packets per message."""
        raise NotImplementedError

    def mean_mac_bytes(self, payload_bytes: int) -> float:
        """Mean *MAC-level* bytes per message (fragments x payload).

        A message occupies whole slots, so the load a message puts on the
        reverse channel is ``ceil(L / B) * B`` bytes, not ``L``.  The load
        index is computed against this quantity so that rho = 1.0 offers
        exactly the data-slot capacity (see DESIGN.md section 6).
        """
        return self.mean_fragments(payload_bytes) * payload_bytes


@dataclass(frozen=True)
class FixedSize(MessageSizeDistribution):
    """All messages are exactly ``size_bytes`` long."""

    size_bytes: int = 120

    def mean(self) -> float:
        return float(self.size_bytes)

    def sample(self, rng: random.Random) -> int:
        return self.size_bytes

    def mean_fragments(self, payload_bytes: int) -> float:
        return float(max(1, -(-self.size_bytes // payload_bytes)))


@dataclass(frozen=True)
class UniformSize(MessageSizeDistribution):
    """Sizes drawn uniformly from [low, high] bytes."""

    low: int = 40
    high: int = 500

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise ValueError(f"invalid size range [{self.low}, {self.high}]")

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.low, self.high)

    def mean_fragments(self, payload_bytes: int) -> float:
        total = sum(max(1, -(-size // payload_bytes))
                    for size in range(self.low, self.high + 1))
        return total / (self.high - self.low + 1)


def make_size_distribution(kind: str,
                           fixed_bytes: int = 120,
                           low: int = 40,
                           high: int = 500) -> MessageSizeDistribution:
    """Factory used by the experiment configs ('fixed' or 'uniform')."""
    if kind == "fixed":
        return FixedSize(fixed_bytes)
    if kind == "uniform":
        return UniformSize(low, high)
    raise ValueError(f"unknown message size distribution {kind!r}")


def interarrival_for_load(load_index: float,
                          num_users: int,
                          mean_message_bytes: float,
                          cycle_length: float,
                          data_slots: int,
                          payload_bytes_per_slot: int) -> float:
    """Per-subscriber mean interarrival time ``T`` for a target load."""
    if load_index <= 0:
        raise ValueError("load_index must be positive")
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    capacity_per_cycle = data_slots * payload_bytes_per_slot
    return (num_users * mean_message_bytes * cycle_length
            / (load_index * capacity_per_cycle))


class PoissonMessageSource:
    """Generates messages for one subscriber on the simulator clock."""

    _ids = itertools.count()

    def __init__(self, sim: Simulator, rng: random.Random,
                 mean_interarrival: float,
                 sizes: MessageSizeDistribution,
                 deliver: Callable[[Message], None],
                 start_at: float = 0.0,
                 stop_at: Optional[float] = None):
        if mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        self.sim = sim
        self.rng = rng
        self.mean_interarrival = mean_interarrival
        self.sizes = sizes
        self.deliver = deliver
        self.start_at = start_at
        self.stop_at = stop_at
        self.generated = 0
        sim.call_at(sim.now, self._start)

    def _start(self) -> None:
        now = self.sim.now
        if self.start_at > now:
            self.sim.call_at(now + (self.start_at - now), self._next_gap)
        else:
            self._next_gap()

    def _next_gap(self) -> None:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        gap = self.rng.expovariate(1.0 / self.mean_interarrival)
        self.sim.call_at(self.sim.now + gap, self._arrive)

    def _arrive(self) -> None:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        message = Message(message_id=next(self._ids),
                          size_bytes=self.sizes.sample(self.rng),
                          created_at=self.sim.now)
        self.generated += 1
        self.deliver(message)
        self._next_gap()

"""Slot scheduling at the base station (Sections 3.1, 3.5).

Three pieces:

* :class:`RoundRobinScheduler` -- allocates reverse data slots to the
  subscribers with outstanding reservation demand, one slot per subscriber
  per round, starting from a pointer that persists across cycles (the
  paper's round-robin fairness).  The resulting allocation is *lumped*:
  each subscriber's slots are contiguous, so it switches between transmit
  and receive at most once per cycle (Section 3.5).
* :class:`ForwardScheduler` -- assigns forward data slots round-robin to
  subscribers with queued downlink packets, subject to the half-duplex
  constraints (i)--(iii): a subscriber must not be scheduled to receive
  within 20 ms of any of its reverse transmissions, and the first forward
  slot must not go to the subscriber that listens to the second
  control-field set.
* :class:`ContentionController` -- adapts the number of contention slots
  to the observed collision rate (Section 3.5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.phy import timing
from repro.phy.intervals import spans_overlap


class RoundRobinScheduler:
    """Round-robin reverse-slot allocator with persistent rotation."""

    def __init__(self):
        self._ring: List[int] = []
        self._next_index = 0

    def _sync_ring(self, uids: Sequence[int]) -> None:
        known = set(self._ring)
        for uid in uids:
            if uid not in known:
                self._ring.append(uid)
                known.add(uid)
        wanted = set(uids)
        if len(wanted) != len(self._ring):
            # Preserve rotation position across removals.
            pointer_uid = (self._ring[self._next_index % len(self._ring)]
                           if self._ring else None)
            self._ring = [uid for uid in self._ring if uid in wanted]
            if pointer_uid in wanted and self._ring:
                self._next_index = self._ring.index(pointer_uid)
            else:
                self._next_index = 0

    def allocate(self, demands: Dict[int, int],
                 num_slots: int) -> Dict[int, int]:
        """Slots granted per subscriber (uid -> count), round-robin.

        ``demands`` maps uid -> outstanding slot requests.  Subscribers
        are served one slot at a time in ring order until either all
        demand is met or ``num_slots`` are exhausted.
        """
        active = [uid for uid, demand in demands.items() if demand > 0]
        self._sync_ring(sorted(active))
        grants: Dict[int, int] = {}
        if not self._ring or num_slots <= 0:
            return grants
        remaining = dict(demands)
        slots_left = num_slots
        index = self._next_index % len(self._ring)
        start_index = index
        idle_passes = 0
        while slots_left > 0 and idle_passes <= len(self._ring):
            uid = self._ring[index]
            if remaining.get(uid, 0) > 0:
                grants[uid] = grants.get(uid, 0) + 1
                remaining[uid] -= 1
                slots_left -= 1
                idle_passes = 0
            else:
                idle_passes += 1
            index = (index + 1) % len(self._ring)
        self._next_index = index
        return grants

    def layout_slots(self, grants: Dict[int, int],
                     data_slots: int,
                     contention_slots: Sequence[int]) -> List[Optional[int]]:
        """Lay grants out as a lumped per-slot assignment list.

        Contention slots stay ``None``; each subscriber's granted slots are
        placed contiguously (slot lumping, Section 3.5) in grant order.
        """
        assignment: List[Optional[int]] = [None] * data_slots
        blocked = set(contention_slots)
        free = [index for index in range(data_slots)
                if index not in blocked]
        cursor = 0
        for uid, count in grants.items():
            for _ in range(count):
                if cursor >= len(free):
                    raise ValueError("more grants than free slots")
                assignment[free[cursor]] = uid
                cursor += 1
        return assignment


class Interval:
    """A closed-open time interval [start, end).

    A plain ``__slots__`` class rather than a frozen dataclass: the base
    station builds one per scheduled reverse slot every cycle, and
    ``object.__setattr__``-based frozen construction dominated the
    schedule-build profile.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: float, end: float):
        self.start = start
        self.end = end

    def expanded(self, margin: float) -> "Interval":
        return Interval(self.start - margin, self.end + margin)

    def overlaps(self, other: "Interval") -> bool:
        return spans_overlap(self.start, self.end, other.start, other.end)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"Interval(start={self.start!r}, end={self.end!r})"


class ForwardScheduler:
    """Forward-slot allocator under the half-duplex constraints."""

    def __init__(self):
        self._ring: List[int] = []
        self._next_index = 0

    def allocate(self,
                 demands: Dict[int, int],
                 reverse_tx: Dict[int, List[Interval]],
                 cf2_listener: Optional[int],
                 cycle_start: float) -> List[Optional[int]]:
        """Assign the N forward data slots for one cycle.

        Parameters
        ----------
        demands:
            uid -> number of queued downlink packets.
        reverse_tx:
            uid -> this cycle's scheduled reverse transmit intervals
            (absolute times); forward receptions must keep a 20 ms margin
            from every one of them (constraints (i)--(iii)).  Only the
            uids in ``demands`` are read.
        cf2_listener:
            The subscriber that listens to the second control-field set
            this cycle (it may not receive forward slot 0).
        cycle_start:
            Absolute start time of the forward cycle.
        """
        active = sorted(uid for uid, demand in demands.items() if demand > 0)
        ring = self._ring
        known = set(ring)
        for uid in active:
            if uid not in known:
                ring.append(uid)
                known.add(uid)
        remaining = dict(demands)
        assignment: List[Optional[int]] = [None] * timing.NUM_FORWARD_DATA_SLOTS
        # Nothing demanded means no slot can ever be chosen and the
        # rotation pointer never moves: skip the 37-slot ring scan.
        open_demand = sum(d for d in remaining.values() if d > 0)
        if not ring or open_demand == 0:
            return assignment
        margin = timing.MS_TURNAROUND_TIME
        slot_time = timing.FORWARD_SLOT_TIME
        offsets = timing.FORWARD_SLOT_OFFSETS
        ring_size = len(ring)
        next_index = self._next_index
        for slot_index in range(timing.NUM_FORWARD_DATA_SLOTS):
            # Same float arithmetic as Interval(...).expanded(margin) so
            # boundary comparisons stay bit-identical.
            slot_start = cycle_start + offsets[slot_index]
            guard_start = slot_start - margin
            guard_end = (slot_start + slot_time) + margin
            chosen = None
            for step in range(ring_size):
                uid = ring[(next_index + step) % ring_size]
                if remaining.get(uid, 0) <= 0:
                    continue
                if slot_index == 0 and uid == cf2_listener:
                    continue
                conflict = False
                for tx in reverse_tx.get(uid, ()):
                    if guard_start < tx.end and tx.start < guard_end:
                        conflict = True
                        break
                if conflict:
                    continue
                chosen = uid
                next_index = (next_index + step + 1) % ring_size
                break
            if chosen is not None:
                assignment[slot_index] = chosen
                remaining[chosen] -= 1
                open_demand -= 1
                if open_demand == 0:
                    break
        self._next_index = next_index
        return assignment


class ContentionController:
    """Adaptive contention-slot count (Section 3.5).

    * If collisions occur in at least ``grow_threshold`` contention slots
      of a cycle, or in each of two consecutive cycles, grow (up to
      ``max_slots``).
    * If at least two contention slots went completely unused, shrink
      (down to ``min_slots``).
    """

    def __init__(self, min_slots: int = 1, max_slots: int = 3,
                 grow_threshold: int = 2):
        if not 1 <= min_slots <= max_slots:
            raise ValueError("need 1 <= min_slots <= max_slots")
        self.min_slots = min_slots
        self.max_slots = max_slots
        self.grow_threshold = grow_threshold
        self.current = min_slots
        self._consecutive_collision_cycles = 0

    def update(self, collided_slots: int, unused_slots: int) -> int:
        """Feed one cycle's observation; returns the next cycle's count."""
        if collided_slots > 0:
            self._consecutive_collision_cycles += 1
        else:
            self._consecutive_collision_cycles = 0
        if (collided_slots >= self.grow_threshold
                or self._consecutive_collision_cycles >= 2):
            self.current = min(self.current + 1, self.max_slots)
        elif unused_slots >= 2:
            self.current = max(self.current - 1, self.min_slots)
        return self.current

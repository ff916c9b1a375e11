"""GPS slot management (Section 3.3).

The base station assigns each active GPS subscriber one GPS slot per
notification cycle.  To reclaim bandwidth when GPS users sign off, slots
are dynamically consolidated under rules R1--R3:

* **R1** -- GPS slots in a cycle are allocated in order.
* **R2** -- a newly admitted GPS user gets the first unused slot.
* **R3** -- when the user holding slot ``i`` leaves, a user holding a slot
  ``j > i`` is re-assigned slot ``i`` (we move the *highest* occupied slot
  into the hole, which keeps the allocation a prefix).

Moving a user to an earlier slot can only shorten its inter-access gap, so
R3 preserves the 4-second deadline.  When at most three GPS users remain,
the reverse cycle switches to format 2 and five unused GPS slots merge
into one extra data slot; the reverse transition (format 2 -> 1) happens
when a fourth user is admitted.

With ``dynamic=False`` the manager models the naive static scheme the
paper argues against: slots are never consolidated and the cycle stays in
format 1, so holes between allocated slots are wasted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.phy import timing


@dataclass(frozen=True)
class Reassignment:
    """A record of one R3 slot move (for auditing the QoS invariant)."""

    uid: int
    old_slot: int
    new_slot: int
    cycle: int


class GpsSlotManager:
    """Tracks which GPS subscriber owns which GPS slot."""

    def __init__(self, dynamic: bool = True,
                 max_slots: int = timing.MAX_GPS_SLOTS):
        self.dynamic = dynamic
        self.max_slots = max_slots
        self._slot_of: Dict[int, int] = {}  # uid -> slot index
        self.reassignments: List[Reassignment] = []

    # -- queries ------------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._slot_of)

    @property
    def format_id(self) -> int:
        """Reverse-cycle format implied by the current population."""
        if not self.dynamic:
            return 1
        return 1 if self.active_count > timing.FORMAT2_GPS_SLOTS else 2

    def layout(self) -> timing.ReverseLayout:
        return timing.FORMAT1 if self.format_id == 1 else timing.FORMAT2

    def slot_of(self, uid: int) -> Optional[int]:
        return self._slot_of.get(uid)

    def schedule(self) -> List[Optional[int]]:
        """Per-slot owner list, sized to the current layout's GPS slots."""
        layout = self.layout()
        slots: List[Optional[int]] = [None] * layout.gps_slots
        for uid, slot in self._slot_of.items():
            if slot < layout.gps_slots:
                slots[slot] = uid
        return slots

    def occupied_slots(self) -> List[int]:
        return sorted(self._slot_of.values())

    # -- mutation --------------------------------------------------------------

    def admit(self, uid: int) -> Optional[int]:
        """R2: give ``uid`` the first unused slot; None when full."""
        if uid in self._slot_of:
            return self._slot_of[uid]
        if self.active_count >= self.max_slots:
            return None
        used = set(self._slot_of.values())
        slot = next(index for index in range(self.max_slots)
                    if index not in used)
        self._slot_of[uid] = slot
        return slot

    def leave(self, uid: int, cycle: int = 0) -> List[Reassignment]:
        """Remove ``uid``; with dynamic adjustment, consolidate via R3."""
        slot = self._slot_of.pop(uid, None)
        if slot is None:
            return []
        if not self.dynamic:
            return []
        moves: List[Reassignment] = []
        # R3: move the highest-slot user into the hole (earlier slot only).
        if self._slot_of:
            top_uid = max(self._slot_of, key=self._slot_of.get)
            top_slot = self._slot_of[top_uid]
            if top_slot > slot:
                self._slot_of[top_uid] = slot
                move = Reassignment(uid=top_uid, old_slot=top_slot,
                                    new_slot=slot, cycle=cycle)
                moves.append(move)
                self.reassignments.append(move)
        return moves

    def check_invariants(self) -> None:
        """Raise AssertionError when R1/R2 consolidation is violated."""
        slots = self.occupied_slots()
        if len(set(slots)) != len(slots):
            raise AssertionError(f"duplicate GPS slot assignment: {slots}")
        if self.dynamic and slots != list(range(len(slots))):
            raise AssertionError(
                f"dynamic GPS slots not consolidated to a prefix: {slots}")
        layout = self.layout()
        if self.dynamic and any(slot >= layout.gps_slots for slot in slots):
            raise AssertionError(
                f"GPS slot beyond the current format's range: {slots} "
                f"(format {layout.format_id})")

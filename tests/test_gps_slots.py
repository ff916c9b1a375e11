"""Tests for GPS slot management rules R1--R3 (Section 3.3)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.gps_slots import GpsSlotManager
from repro.phy import timing


class TestAdmission:
    def test_r2_first_unused_slot(self):
        mgr = GpsSlotManager()
        assert mgr.admit(10) == 0
        assert mgr.admit(11) == 1
        assert mgr.admit(12) == 2

    def test_admit_idempotent(self):
        mgr = GpsSlotManager()
        assert mgr.admit(10) == 0
        assert mgr.admit(10) == 0
        assert mgr.active_count == 1

    def test_capacity_limit(self):
        mgr = GpsSlotManager()
        for uid in range(8):
            assert mgr.admit(uid) is not None
        assert mgr.admit(99) is None
        assert mgr.active_count == 8

    def test_format_switch_at_three(self):
        mgr = GpsSlotManager()
        for uid in range(3):
            mgr.admit(uid)
        assert mgr.format_id == 2
        mgr.admit(3)
        assert mgr.format_id == 1
        mgr.leave(3)
        assert mgr.format_id == 2


class TestR3Consolidation:
    def test_hole_filled_by_highest(self):
        mgr = GpsSlotManager()
        for uid in (10, 11, 12, 13):
            mgr.admit(uid)
        moves = mgr.leave(11, cycle=5)
        assert len(moves) == 1
        assert moves[0].uid == 13
        assert moves[0].old_slot == 3
        assert moves[0].new_slot == 1
        assert mgr.occupied_slots() == [0, 1, 2]

    def test_leaving_highest_needs_no_move(self):
        mgr = GpsSlotManager()
        for uid in (10, 11, 12):
            mgr.admit(uid)
        assert mgr.leave(12) == []
        assert mgr.occupied_slots() == [0, 1]

    def test_r3_moves_only_to_earlier_slots(self):
        """Moving earlier can only shorten the inter-access gap (QoS)."""
        rng = random.Random(11)
        mgr = GpsSlotManager()
        population = []
        next_uid = 0
        for _ in range(300):
            if population and rng.random() < 0.5:
                uid = rng.choice(population)
                population.remove(uid)
                mgr.leave(uid)
            elif len(population) < 8:
                mgr.admit(next_uid)
                population.append(next_uid)
                next_uid += 1
            mgr.check_invariants()
        for move in mgr.reassignments:
            assert move.new_slot < move.old_slot

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 7)),
                    max_size=60))
    @settings(max_examples=50)
    def test_invariants_under_arbitrary_churn(self, operations):
        mgr = GpsSlotManager()
        population = []
        next_uid = 0
        for is_leave, index in operations:
            if is_leave and population:
                uid = population.pop(index % len(population))
                mgr.leave(uid)
            elif not is_leave and len(population) < 8:
                mgr.admit(next_uid)
                population.append(next_uid)
                next_uid += 1
            mgr.check_invariants()
            # Occupied slots form a prefix: unused GPS time is contiguous
            # at the end of the GPS region and convertible to data slots.
            assert mgr.occupied_slots() == list(range(len(population)))

    def test_leave_unknown_uid_is_noop(self):
        mgr = GpsSlotManager()
        mgr.admit(1)
        assert mgr.leave(99) == []
        assert mgr.active_count == 1


class TestStaticMode:
    """dynamic=False models the naive scheme the paper argues against."""

    def test_holes_persist(self):
        mgr = GpsSlotManager(dynamic=False)
        for uid in (1, 2, 3, 4, 5):
            mgr.admit(uid)
        mgr.leave(2)
        mgr.leave(4)
        assert mgr.occupied_slots() == [0, 2, 4]  # holes at 1 and 3

    def test_always_format_1(self):
        mgr = GpsSlotManager(dynamic=False)
        mgr.admit(1)
        assert mgr.format_id == 1
        assert mgr.layout() is timing.FORMAT1

    def test_holes_reused_on_admit(self):
        mgr = GpsSlotManager(dynamic=False)
        for uid in (1, 2, 3):
            mgr.admit(uid)
        mgr.leave(2)
        assert mgr.admit(4) == 1  # R2 still applies

    def test_check_invariants_tolerates_holes(self):
        mgr = GpsSlotManager(dynamic=False)
        mgr.admit(1)
        mgr.admit(2)
        mgr.leave(1)
        mgr.check_invariants()  # holes are legal in static mode


class TestSchedule:
    def test_schedule_matches_layout(self):
        mgr = GpsSlotManager()
        mgr.admit(7)
        mgr.admit(8)
        schedule = mgr.schedule()
        assert len(schedule) == timing.FORMAT2_GPS_SLOTS
        assert schedule[0] == 7
        assert schedule[1] == 8
        assert schedule[2] is None

    def test_schedule_format1(self):
        mgr = GpsSlotManager()
        for uid in range(5):
            mgr.admit(uid)
        schedule = mgr.schedule()
        assert len(schedule) == timing.FORMAT1_GPS_SLOTS
        assert schedule[:5] == [0, 1, 2, 3, 4]

    def test_slot_of(self):
        mgr = GpsSlotManager()
        mgr.admit(42)
        assert mgr.slot_of(42) == 0
        assert mgr.slot_of(1) is None

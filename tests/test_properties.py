"""Property-based and fuzz tests of whole-protocol invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import CellConfig, run_cell_detailed
from repro.core.gps_slots import GpsSlotManager


class GpsSlotMachine(RuleBasedStateMachine):
    """Stateful model-based test of the R1-R3 slot rules.

    The model is a simple set of active uids; the invariants encode the
    paper's guarantees: unique slots, prefix consolidation (dynamic
    mode), format correctness, and R3 moves only to earlier slots.
    """

    def __init__(self):
        super().__init__()
        self.manager = GpsSlotManager(dynamic=True)
        self.active = {}
        self.next_uid = 0
        self.moves_seen = 0

    @rule()
    def admit(self):
        uid = self.next_uid
        self.next_uid += 1
        slot = self.manager.admit(uid)
        if len(self.active) >= 8:
            assert slot is None
        else:
            assert slot is not None
            self.active[uid] = slot

    @precondition(lambda self: self.active)
    @rule(index=st.integers(min_value=0, max_value=7))
    def leave(self, index):
        uid = sorted(self.active)[index % len(self.active)]
        moves = self.manager.leave(uid)
        del self.active[uid]
        for move in moves:
            assert move.new_slot < move.old_slot  # earlier-only (QoS)
            assert move.uid in self.active
            self.active[move.uid] = move.new_slot
        self.moves_seen += len(moves)

    @invariant()
    def slots_unique_and_prefix(self):
        slots = self.manager.occupied_slots()
        assert slots == list(range(len(self.active)))
        self.manager.check_invariants()

    @invariant()
    def format_matches_population(self):
        expected = 1 if len(self.active) > 3 else 2
        assert self.manager.format_id == expected

    @invariant()
    def model_agrees_with_manager(self):
        for uid, slot in self.active.items():
            assert self.manager.slot_of(uid) == slot


TestGpsSlotMachine = GpsSlotMachine.TestCase
TestGpsSlotMachine.settings = settings(
    max_examples=40, stateful_step_count=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None)


class TestWholeCellInvariants:
    """Fuzz small cells over random configurations; assert invariants
    that must hold regardless of workload or channel."""

    @given(
        data_users=st.integers(1, 8),
        gps_users=st.integers(0, 8),
        load=st.sampled_from([0.2, 0.6, 1.0, 1.3]),
        message_size=st.sampled_from(["fixed", "uniform"]),
        error=st.sampled_from(["perfect", "outage"]),
        second_cf=st.booleans(),
        dynamic=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_hold(self, data_users, gps_users, load,
                             message_size, error, second_cf, dynamic,
                             seed):
        config = CellConfig(
            num_data_users=data_users, num_gps_users=gps_users,
            load_index=load, message_size=message_size,
            error_model=error, outage_loss=0.05,
            use_second_cf=second_cf,
            dynamic_slot_adjustment=dynamic,
            cycles=40, warmup_cycles=8, seed=seed)
        run = run_cell_detailed(config)
        stats = run.stats

        # 1. The half-duplex constraint is never violated.
        assert stats.radio_violations == 0

        # 2. Conservation: deliveries never exceed transmissions.
        assert stats.data_packets_delivered <= stats.data_packets_sent
        assert stats.gps_packets_delivered <= stats.gps_packets_sent
        assert stats.messages_delivered <= stats.messages_generated

        # 3. Slot accounting is consistent.
        assert stats.reverse_data_slots_used \
            <= stats.reverse_data_slots_assigned
        assert stats.reverse_data_slots_assigned \
            <= stats.reverse_data_slots_total

        # 4. GPS QoS: on any channel, transmitted reports respect the
        #    deadline (misses only possible via CF loss on lossy links).
        if error == "perfect":
            assert stats.gps_deadline_misses == 0

        # 5. Without the second CF set, the last slot is never used.
        if not second_cf:
            assert stats.data_packets_in_last_slot == 0

        # 6. The GPS manager's structural invariants hold at the end.
        run.base_station.gps_mgr.check_invariants()

        # 7. Registration never over-assigns uids.
        uids = [u.uid for u in run.data_users + run.gps_units
                if u.uid is not None]
        assert len(uids) == len(set(uids))

    @given(seed=st.integers(0, 1_000))
    @settings(max_examples=10, deadline=None)
    def test_determinism(self, seed):
        config = CellConfig(num_data_users=4, num_gps_users=2,
                            load_index=0.7, cycles=30, warmup_cycles=6,
                            seed=seed)
        first = run_cell_detailed(config).stats.summary()
        second = run_cell_detailed(config).stats.summary()
        assert first == second


class TestConservation:
    def test_message_ledger_balances(self):
        """generated = delivered + dropped + still-queued/in-flight."""
        config = CellConfig(num_data_users=6, num_gps_users=2,
                            load_index=1.0, cycles=100,
                            warmup_cycles=20, seed=31,
                            buffer_packets=40)
        run = run_cell_detailed(config)
        stats = run.stats
        # Count messages still somewhere in the system at the end.
        pending_message_ids = set()
        for subscriber in run.data_users:
            for packet in list(subscriber.queue) \
                    + list(subscriber.inflight.values()):
                pending_message_ids.add(packet.message_id)
        # Every generated message is accounted for (delivered, dropped,
        # or still pending).  Partially-delivered messages may be both
        # pending and counted: allow slack of the pending set size.
        accounted = stats.messages_delivered + stats.messages_dropped
        assert accounted <= stats.messages_generated
        assert stats.messages_generated - accounted \
            <= len(pending_message_ids) + 2

    def test_bytes_never_created_from_nothing(self):
        config = CellConfig(num_data_users=6, num_gps_users=2,
                            load_index=0.8, cycles=100,
                            warmup_cycles=20, seed=32)
        stats = run_cell_detailed(config).stats
        assert stats.payload_bytes_delivered <= stats.bytes_offered
        assert sum(stats.per_user_bytes.values()) \
            == stats.payload_bytes_delivered

"""Focused tests of base-station internals via a live (small) cell."""

from repro.core.cell import build_cell, run_cell_detailed
from repro.core.config import CellConfig
from repro.core.frames import KIND_RESERVATION, SLOT_DATA, UplinkFrame
from repro.core.packets import (
    ForwardPacket,
    ReservationPacket,
    SERVICE_GPS,
)
from repro.core.subscriber import DATA_ON_AIR
from repro.phy import timing
from repro.phy.channel import Transmission


def build(**overrides):
    defaults = dict(num_data_users=4, num_gps_users=2, load_index=0.6,
                    cycles=60, warmup_cycles=10, seed=17)
    defaults.update(overrides)
    return build_cell(CellConfig(**defaults))


class TestControlFieldConstruction:
    def test_cf1_and_cf2_schedules_identical(self):
        """Problem 3 (Section 3.4): only the ACK content may differ."""
        run = build()
        captured = {}
        original = run.base_station._make_cf

        def capture(record, which):
            cf = original(record, which)
            captured.setdefault(record.cycle, {})[which] = cf
            return cf

        run.base_station._make_cf = capture
        run.sim.run(until=run.config.duration)
        checked = 0
        for _cycle, pair in captured.items():
            if 1 not in pair or 2 not in pair:
                continue
            cf1, cf2 = pair[1], pair[2]
            assert cf1.gps_schedule == cf2.gps_schedule
            assert cf1.reverse_schedule == cf2.reverse_schedule
            checked += 1
        assert checked > 30

    def test_cf2_fills_in_last_slot_ack(self):
        """The last reverse data slot's ACK appears only in CF2."""
        run = build(load_index=1.1, cycles=50)
        differences = []
        original = run.base_station._make_cf

        def capture(record, which):
            cf = original(record, which)
            previous = run.base_station.record_for(record.cycle - 1)
            if previous is not None:
                last = previous.last_data_slot
                if which == 1:
                    capture.cf1_last = cf.reverse_acks[last]
                else:
                    differences.append(
                        (capture.cf1_last, cf.reverse_acks[last]))
            return cf

        capture.cf1_last = None
        run.base_station._make_cf = capture
        run.sim.run(until=run.config.duration)
        # At saturation the last slot is regularly used, so CF2 must
        # regularly carry an ACK where CF1 had none.
        upgrades = [pair for pair in differences
                    if pair[0] is not None and pair[0].is_empty
                    and not pair[1].is_empty]
        assert len(upgrades) > 10

    def test_forward_slot0_never_given_to_cf2_listener(self):
        run = build(load_index=1.1, forward_load_index=0.5, cycles=60)
        violations = []
        original = run.base_station._build_cycle

        def check(t0):
            record = original(t0)
            if record.cf2_listener is not None \
                    and record.forward_assignment[0] == record.cf2_listener:
                violations.append(record.cycle)
            return record

        run.base_station._build_cycle = check
        run.sim.run(until=run.config.duration)
        assert violations == []


class TestSignOff:
    def test_sign_off_releases_everything(self):
        run = run_cell_detailed(build().config)
        bs = run.base_station
        subscriber = run.data_users[0]
        uid = subscriber.uid
        bs.forward_queues[uid] = __import__("collections").deque(
            [ForwardPacket(uid=uid, seq=0)])
        bs.demands[uid] = 3
        bs.sign_off(uid)
        assert bs.registration.lookup_uid(uid) is None
        assert uid not in bs.demands
        assert uid not in bs.forward_queues

    def test_sign_off_gps_frees_slot(self):
        run = run_cell_detailed(build().config)
        bs = run.base_station
        unit = run.gps_units[0]
        assert bs.gps_mgr.slot_of(unit.uid) is not None
        bs.sign_off(unit.uid)
        assert bs.gps_mgr.slot_of(unit.uid) is None

    def test_sign_off_unknown_uid_is_noop(self):
        run = run_cell_detailed(build().config)
        run.base_station.sign_off(61)  # never assigned


class TestHousekeeping:
    def test_records_pruned(self):
        run = run_cell_detailed(build(cycles=80).config)
        bs = run.base_station
        # Only a handful of recent cycles are retained, slot outcomes
        # with them (they live on each cycle's record).
        assert len(bs._records) <= 5
        assert all(cycle >= bs.cycle - 4 for cycle in bs._records)

    def test_stray_uplinks_leave_acks_alone(self):
        """A subscriber handed off between hearing its schedule and its
        slot sends a frame for a cycle this station may have pruned, or
        for a slot its layout lacks; neither may reach the ACKs of the
        next cycle's two sets."""
        def next_acks(stray):
            run = build()
            bs = run.base_station
            sent = []
            make_cf = bs._make_cf

            def capture(record, which):
                cf = make_cf(record, which)
                sent.append(cf.reverse_acks)
                return cf

            bs._make_cf = capture
            now = 20 * timing.CYCLE_LENGTH + 2.0
            run.sim.run(until=now)
            if stray:
                uid = run.data_users[0].uid
                record = bs.record_for(bs.cycle)
                for cycle, slot in ((bs.cycle - 10, 0),
                                    (bs.cycle, record.layout.data_slots)):
                    frame = UplinkFrame(
                        kind=KIND_RESERVATION, cycle=cycle,
                        slot_kind=SLOT_DATA, slot_index=slot,
                        packet=ReservationPacket(uid=uid, requested=1),
                        uid=uid)
                    bs._on_reverse_delivery(Transmission(
                        sender="stray", payload=frame, start=now,
                        duration=DATA_ON_AIR, kind=KIND_RESERVATION), True)
            heard = len(sent)
            run.sim.run(until=now + timing.CYCLE_LENGTH)
            return sent[heard:heard + 2]

        assert next_acks(stray=True) == next_acks(stray=False)

    def test_seq_dedup_window_bounded(self):
        run = run_cell_detailed(build(load_index=1.1, cycles=120).config)
        for seen in run.base_station._recent_seqs.values():
            assert len(seen) <= 256


class TestCapacityLimits:
    def test_full_uid_space(self):
        """Paper scale: the cell supports 8 GPS + up to 64 data users
        (we cap at 55+8=63 assignable IDs; 63 is the wire sentinel).
        Subscribers power on over time -- 63 *simultaneous* registrants
        would deadlock pure persistence (see the p-persistence test)."""
        run = run_cell_detailed(CellConfig(
            num_data_users=55, num_gps_users=8, load_index=0.5,
            registration_mode="poisson", registration_rate=0.5,
            cycles=160, warmup_cycles=80, seed=19))
        stats = run.stats
        assert stats.registrations_completed == 63
        assert stats.radio_violations == 0
        assert stats.gps_deadline_misses == 0
        uids = {u.uid for u in run.data_users + run.gps_units}
        assert len(uids) == 63
        assert max(uids) <= 62

    def test_p_persistence_resolves_large_storms(self):
        """63 simultaneous registrants over ~7 contention slots deadlock
        under the paper's pure persistence; p-persistence at
        p ~ slots/registrants converges."""
        pure = run_cell_detailed(CellConfig(
            num_data_users=55, num_gps_users=8, load_index=0.0,
            cycles=80, warmup_cycles=40, seed=19))
        adaptive = run_cell_detailed(CellConfig(
            num_data_users=55, num_gps_users=8, load_index=0.0,
            registration_persistence=0.12,
            cycles=80, warmup_cycles=40, seed=19))
        assert pure.stats.registrations_completed < 10
        assert adaptive.stats.registrations_completed > 50

    def test_ninth_gps_user_rejected(self):
        run = build(num_gps_users=8)
        bs = run.base_station
        run.sim.run(until=run.config.duration)
        # All 8 slots taken; a 9th approval must fail.
        record = bs.registration.approve(0x3FFF, SERVICE_GPS,
                                         run.sim.now)
        assert record is None

    def test_gps_slots_match_registrations(self):
        run = run_cell_detailed(build(num_gps_users=5).config)
        bs = run.base_station
        assert bs.gps_mgr.active_count == 5
        assert bs.registration.active_gps == 5
        bs.gps_mgr.check_invariants()


class TestDemandBookkeeping:
    def test_demands_drain_to_zero_at_light_load(self):
        run = run_cell_detailed(build(load_index=0.2, cycles=100).config)
        # After the run, queues have drained and demand follows.
        leftovers = {uid: demand for uid, demand
                     in run.base_station.demands.items() if demand > 2}
        assert not leftovers

    def test_grants_never_exceed_schedulable_slots(self):
        run = build(load_index=1.1)
        overgrants = []
        original = run.base_station._build_cycle

        def check(t0):
            record = original(t0)
            granted = sum(record.grants.values())
            schedulable = record.layout.data_slots \
                - len([i for i in record.contention_slots
                       if i < run.base_station.contention.current])
            if granted > record.layout.data_slots:
                overgrants.append(record.cycle)
            return record

        run.base_station._build_cycle = check
        run.sim.run(until=run.config.duration)
        assert overgrants == []

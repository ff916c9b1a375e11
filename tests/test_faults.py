"""Fault injection, liveness leases, eviction recovery, invariants.

The acceptance scenario from the robustness milestone: crash and restart
three data users and two GPS units mid-run at rho = 0.7 with a 6-cycle
liveness lease, and verify the cell heals completely -- every restarted
subscriber re-registers, no UID or GPS slot leaks, the continuous
invariant monitor stays silent, and live GPS users never miss the
4-second deadline.  Plus unit coverage for the fault schedule parser,
the injector's fade/storm mechanics, the lease sweep, and the
registration module's incremental counters.
"""

import random

import pytest

from repro import CellConfig, run_cell_detailed
from repro.core.base_station import SlotResult
from repro.core.cell import build_cell
from repro.core.frames import KIND_REGISTRATION, SLOT_DATA, UplinkFrame
from repro.core.packets import (
    RegistrationPacket,
    SERVICE_DATA,
    SERVICE_GPS,
)
from repro.core.registration import RegistrationModule
from repro.core.subscriber import ACTIVE, CRASHED
from repro.engine import RunSpec, cell_point, execute
from repro.faults import FaultSpec, cf_storm, crash, fade, parse_faults
from repro.faults import restart as restart_spec
from repro.phy import timing
from repro.phy.errors import PerfectChannelModel
from repro.traffic.messages import Message


def chaos_config(**overrides):
    """The acceptance scenario: 3 data + 2 GPS crash/restart pairs.

    GPS downtimes exceed the lease, so both units are lease-evicted and
    must come back through the full eviction/re-registration path.
    """
    faults = (
        crash("data-0", 40), restart_spec("data-0", 52),
        crash("data-1", 44), restart_spec("data-1", 56),
        crash("data-2", 48), restart_spec("data-2", 60),
        crash("gps-0", 40), restart_spec("gps-0", 54),
        crash("gps-1", 45), restart_spec("gps-1", 59),
    )
    defaults = dict(num_data_users=9, num_gps_users=4, load_index=0.7,
                    cycles=120, warmup_cycles=20, seed=7,
                    faults=faults, liveness_lease_cycles=6,
                    check_invariants=True)
    defaults.update(overrides)
    return CellConfig(**defaults)


def _registered(run, subscriber) -> bool:
    record = run.base_station.registration.lookup_ein(subscriber.ein)
    return (subscriber.alive and subscriber.state == ACTIVE
            and record is not None and record.uid == subscriber.uid)


class TestChurnAcceptance:
    """The milestone's acceptance scenario, asserted end to end."""

    @pytest.fixture(scope="class")
    def healed(self):
        config = chaos_config()
        run = build_cell(config)
        run.sim.run(until=config.duration)
        # The protocol guarantees convergence, not a deadline: an
        # idle-evicted data user only re-registers when it next has
        # traffic, so give stragglers a bounded grace period and keep
        # their applications talking (the workload stops at
        # ``config.duration``; a silent subscriber is *supposed* to stay
        # deregistered until it has something to say).
        # The grace period must cover eviction detection through the
        # reservation path: up to ``eviction_detect_attempts`` failed
        # attempts with exponential backoff between them (~60 cycles
        # worst case), plus the re-registration handshake.
        targets = run.data_users[:3] + run.gps_units[:2]
        wakeup = 900000
        for _ in range(150):
            if all(_registered(run, sub) for sub in targets):
                break
            for sub in run.data_users[:3]:
                if not _registered(run, sub) and not sub.queue:
                    wakeup += 1
                    sub.submit_message(Message(
                        message_id=wakeup, size_bytes=40,
                        created_at=run.sim.now))
            run.sim.run(until=run.sim.now + timing.CYCLE_LENGTH)
        return run

    def test_every_crashed_subscriber_recovered(self, healed):
        targets = healed.data_users[:3] + healed.gps_units[:2]
        for sub in targets:
            assert sub.crashes == 1
            assert _registered(healed, sub), f"{sub.name} not healed"

    def test_recovery_latency_recorded(self, healed):
        # All five crashed subscribers re-registered at least once (the
        # idle-eviction churn of other users may add more samples).
        assert healed.stats.recovery_latency_cycles.count >= 5
        assert healed.stats.recovery_latency_cycles.max > 0

    def test_leases_fired_and_detected(self, healed):
        # Every crashed subscriber was down longer than the lease.
        assert healed.stats.lease_evictions >= 5
        assert healed.stats.evictions_detected >= 1

    def test_no_uid_or_slot_leaks(self, healed):
        registry = healed.base_station.registration
        registry.check_invariants()
        healed.base_station.gps_mgr.check_invariants()
        gps_uids = {record.uid for record in registry.registrants()
                    if record.service == SERVICE_GPS}
        owners = {uid for uid
                  in healed.base_station.gps_mgr.schedule()
                  if uid is not None}
        assert owners == gps_uids
        assert registry.active_gps == len(gps_uids)

    def test_invariants_never_violated(self, healed):
        assert healed.monitor is not None
        assert healed.monitor.checks_run > 100
        assert healed.monitor.violations == []
        assert healed.stats.invariant_violations == 0
        assert healed.monitor.check_now() == []

    def test_gps_deadline_held_for_live_users(self, healed):
        assert healed.stats.gps_deadline_misses == 0

    def test_radio_timeline_stayed_legal(self, healed):
        for sub in healed.data_users + healed.gps_units:
            assert sub.radio.violations == []

    def test_faults_actually_fired(self, healed):
        assert healed.injector is not None
        assert healed.stats.faults_injected == 10
        kinds = [spec.kind for _, spec, _ in healed.injector.fired]
        assert kinds.count("crash") == 5
        assert kinds.count("restart") == 5


class TestDeterminism:
    def test_bit_identical_across_jobs(self):
        points = tuple(
            cell_point(chaos_config(seed=seed, cycles=60,
                                    warmup_cycles=15,
                                    faults=chaos_config().faults[:4]),
                       seed=seed)
            for seed in (1, 2, 3, 4))
        spec = RunSpec(name="faults-determinism", points=points)
        serial = execute(spec, jobs=1, cache=False).values
        parallel = execute(spec, jobs=4, cache=False).values
        assert serial == parallel


class TestFaultSchedule:
    def test_parse_round_trip(self):
        specs = parse_faults(
            "crash:data-0@40;restart:data-0@52,fade:gps-*@60+4*0.9")
        assert specs == (
            crash("data-0", 40), restart_spec("data-0", 52),
            fade("gps-*", 60, duration_cycles=4, loss=0.9))

    def test_parse_cf_storm(self):
        (spec,) = parse_faults("cf_storm:*@70+2")
        assert spec == cf_storm(70, duration_cycles=2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_faults("crash:data-0")
        with pytest.raises(ValueError):
            parse_faults("meteor:data-0@4")

    def test_parse_error_names_token_position_and_grammar(self):
        from repro.faults.schedule import GRAMMAR, FaultParseError

        with pytest.raises(FaultParseError) as excinfo:
            parse_faults("crash:data-0@40;meteor:data-0@4")
        error = excinfo.value
        assert error.position == 2          # 1-based entry position
        assert error.entry == "meteor:data-0@4"
        assert error.token == "meteor"
        assert "meteor" in str(error)
        assert GRAMMAR in str(error)

    def test_parse_error_flags_bad_numbers(self):
        from repro.faults.schedule import FaultParseError

        with pytest.raises(FaultParseError) as excinfo:
            parse_faults("fade:gps-*@60+four")
        assert excinfo.value.token == "four"
        with pytest.raises(FaultParseError) as excinfo:
            parse_faults("fade:gps-*@60*1.5")
        assert excinfo.value.token == "1.5"
        with pytest.raises(FaultParseError) as excinfo:
            parse_faults("fade:gps-*@60/diagonal")
        assert excinfo.value.token == "diagonal"

    def test_format_round_trips_every_generated_schedule(self):
        from repro.faults.schedule import format_faults

        specs = (crash("data-0", 40), restart_spec("data-0", 52),
                 fade("gps-*", 60, duration_cycles=4, loss=0.9,
                      channel="forward"),
                 cf_storm(70, duration_cycles=2, target="data-*"))
        assert parse_faults(format_faults(specs)) == specs

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", at_cycle=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind="fade", at_cycle=1, loss=1.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="fade", at_cycle=1, channel="sideways")

    def test_specs_are_hashable_and_config_accepts_them(self):
        spec = crash("data-0", 10)
        assert hash(spec) == hash(crash("data-0", 10))
        config = CellConfig(faults=[spec], cycles=40, warmup_cycles=8)
        assert config.faults == (spec,)

    def test_config_rejects_non_specs(self):
        with pytest.raises(ValueError):
            CellConfig(faults=("crash:data-0@4",))

    def test_matching(self):
        assert fade("gps-*", 1).matches("gps-3")
        assert not fade("gps-*", 1).matches("data-3")
        assert cf_storm(1).matches("data-0")


class TestInjectorMechanics:
    def test_fade_swaps_and_restores_error_model(self):
        config = CellConfig(num_data_users=2, num_gps_users=1,
                            load_index=0.5, cycles=40, warmup_cycles=8,
                            seed=3,
                            faults=(fade("data-0", 12,
                                         duration_cycles=2, loss=1.0),))
        run = build_cell(config)
        victim = run.data_users[0]
        original = victim.forward_link.error_model
        run.sim.run(until=13.5 * timing.CYCLE_LENGTH)
        assert victim.forward_link.error_model is not original
        assert victim.forward_link.error_model.loss_probability == 1.0
        run.sim.run(until=config.duration)
        assert victim.forward_link.error_model is original
        assert victim.reverse_link.error_model is original \
            or isinstance(victim.reverse_link.error_model,
                          PerfectChannelModel)
        assert run.injector._fade_saved == {}
        # A total 2-cycle fade on both links must cost CF receptions.
        assert run.stats.cf_losses >= 2

    def test_overlapping_fades_restore_once(self):
        config = CellConfig(num_data_users=1, num_gps_users=0,
                            load_index=0.2, cycles=40, warmup_cycles=8,
                            seed=3,
                            faults=(fade("data-0", 10, 4, loss=1.0),
                                    fade("data-0", 12, 4, loss=1.0)))
        run = build_cell(config)
        original = run.data_users[0].forward_link.error_model
        run.sim.run(until=15 * timing.CYCLE_LENGTH)
        # Still inside the second window: model swapped.
        assert run.data_users[0].forward_link.error_model is not original
        run.sim.run(until=config.duration)
        assert run.data_users[0].forward_link.error_model is original

    def test_cf_storm_destroys_control_fields(self):
        config = CellConfig(num_data_users=3, num_gps_users=1,
                            load_index=0.5, cycles=40, warmup_cycles=8,
                            seed=3,
                            faults=(cf_storm(15, duration_cycles=2),),
                            check_invariants=True)
        run = run_cell_detailed(config)
        # 4 subscribers x 2 cycles x (CF1, and CF2 for the last-slot
        # user) -- at minimum each subscriber loses CF1 twice.
        assert run.stats.cf_storm_drops >= 8
        assert run.stats.invariant_violations == 0

    def test_crash_without_restart_stays_down(self):
        config = CellConfig(num_data_users=2, num_gps_users=2,
                            load_index=0.4, cycles=60, warmup_cycles=10,
                            seed=5, faults=(crash("gps-1", 20),),
                            liveness_lease_cycles=5,
                            check_invariants=True)
        run = run_cell_detailed(config)
        dead = run.gps_units[1]
        assert not dead.alive
        assert dead.state == CRASHED
        registry = run.base_station.registration
        # Lease expired: uid freed, GPS slot reclaimed via R3.
        assert registry.lookup_ein(dead.ein) is None
        assert registry.active_gps == 1
        assert run.base_station.gps_mgr.active_count == 1
        assert run.base_station.gps_mgr.occupied_slots() == [0]
        assert run.stats.lease_evictions >= 1
        assert run.stats.invariant_violations == 0


class TestLeaseAndReclaim:
    def test_release_reclaim_end_to_end(self):
        """The satellite scenario: a GPS user leaves, its slot returns
        to the pool (format 2 kicks back in via dynamic adjustment),
        and when it comes back it is re-admitted (format 1 again)."""
        config = CellConfig(num_data_users=4, num_gps_users=4,
                            load_index=0.4, cycles=100,
                            warmup_cycles=15, seed=9,
                            faults=(crash("gps-3", 30),
                                    restart_spec("gps-3", 60)),
                            liveness_lease_cycles=5,
                            check_invariants=True)
        run = build_cell(config)
        observed = {}

        def snapshot(label):
            manager = run.base_station.gps_mgr
            observed[label] = (manager.active_count,
                               manager.format_id,
                               manager.layout().data_slots)

        run.sim.call_at(25 * timing.CYCLE_LENGTH, lambda: snapshot("before"))
        run.sim.call_at(50 * timing.CYCLE_LENGTH, lambda: snapshot("down"))
        run.sim.call_at(90 * timing.CYCLE_LENGTH, lambda: snapshot("after"))
        run.sim.run(until=config.duration)

        # 4 GPS users -> format 1 (8 data slots); after the lease evicts
        # the crashed unit, 3 remain -> format 2 (9 data slots); once it
        # re-registers, format 1 returns.
        assert observed["before"] == (4, 1, timing.FORMAT1_DATA_SLOTS)
        assert observed["down"] == (3, 2, timing.FORMAT2_DATA_SLOTS)
        assert observed["after"] == (4, 1, timing.FORMAT1_DATA_SLOTS)

        returned = run.gps_units[3]
        assert _registered(run, returned)
        assert run.base_station.gps_mgr.slot_of(returned.uid) is not None
        assert run.base_station.gps_mgr.occupied_slots() == [0, 1, 2, 3]
        run.base_station.registration.check_invariants()
        assert run.stats.invariant_violations == 0
        assert run.stats.recovery_latency_cycles.count >= 1

    def test_idle_data_users_are_lease_evicted(self):
        """With zero traffic every data user goes silent and the lease
        reclaims all their UIDs; the zombies are legal (they re-register
        on their next message, which never comes here)."""
        config = CellConfig(num_data_users=5, num_gps_users=1,
                            load_index=0.0, cycles=60, warmup_cycles=10,
                            seed=2, liveness_lease_cycles=4,
                            check_invariants=True)
        run = run_cell_detailed(config)
        registry = run.base_station.registration
        assert registry.active_data == 0
        assert run.stats.lease_evictions >= 5
        # The GPS unit transmits every cycle, so its lease never expires.
        assert registry.active_gps == 1
        assert run.stats.invariant_violations == 0
        assert run.base_station._last_heard.keys() \
            == {run.gps_units[0].uid}

    def test_lease_disabled_preserves_legacy_behaviour(self):
        base = CellConfig(num_data_users=4, num_gps_users=2,
                          load_index=0.0, cycles=60, warmup_cycles=10,
                          seed=2)
        run = run_cell_detailed(base)
        assert run.base_station.registration.active_data == 4
        assert run.stats.lease_evictions == 0


class TestEvictionDetection:
    def test_gps_unit_detects_signoff_and_reregisters(self):
        """A GPS unit deregistered behind its back notices the missing
        schedule entry within ``eviction_detect_cycles`` heard CFs and
        re-registers through normal contention."""
        config = CellConfig(num_data_users=2, num_gps_users=2,
                            load_index=0.3, cycles=80, warmup_cycles=10,
                            seed=4, liveness_lease_cycles=50,
                            check_invariants=True)
        run = build_cell(config)
        station = run.base_station
        victim = run.gps_units[0]

        def evict():
            assert victim.uid is not None
            station.sign_off(victim.uid)

        # Just before the cycle-30 build: the protocol only deregisters
        # at cycle boundaries (the lease sweep runs in ``_build_cycle``),
        # and the invariant monitor assumes that sequencing.
        run.sim.call_at(30 * timing.CYCLE_LENGTH - 0.001, evict)
        run.sim.run(until=config.duration)
        assert victim.crashes == 0
        assert _registered(run, victim)
        assert run.stats.evictions_detected >= 1
        assert run.stats.recovery_latency_cycles.count >= 1
        assert run.stats.invariant_violations == 0


class TestRegistrationCounters:
    def test_incremental_counters_match_scan(self):
        module = RegistrationModule()
        rng = random.Random(13)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.4:
                module.release(live.pop(rng.randrange(len(live))))
            else:
                service = rng.choice((SERVICE_DATA, SERVICE_GPS))
                record = module.approve(rng.randrange(1 << 16),
                                        service, 0.0)
                if record is not None:
                    live.append(record.uid)
            assert module.active_data == module.scan_active(SERVICE_DATA)
            assert module.active_gps == module.scan_active(SERVICE_GPS)
            module.check_invariants()

    def test_check_invariants_catches_drift(self):
        module = RegistrationModule()
        module.approve(1, SERVICE_DATA, 0.0)
        module._active_counts[SERVICE_DATA] += 1
        with pytest.raises(AssertionError):
            module.check_invariants()

    def test_registrants_snapshot(self):
        module = RegistrationModule()
        first = module.approve(1, SERVICE_DATA, 0.0)
        second = module.approve(2, SERVICE_GPS, 0.0)
        snapshot = module.registrants()
        assert first in snapshot and second in snapshot


def _registration_frame(ein, service):
    return UplinkFrame(kind=KIND_REGISTRATION, cycle=0,
                       slot_kind=SLOT_DATA, slot_index=0,
                       packet=RegistrationPacket(ein=ein, service=service),
                       uid=None, contention=True,
                       first_attempt_time=0.0, first_attempt_cycle=0)


class TestRejectionCounters:
    def _station(self):
        config = CellConfig(num_data_users=0, num_gps_users=0,
                            load_index=0.0, cycles=10, warmup_cycles=2)
        return build_cell(config).base_station

    def test_capacity_rejections_counted(self):
        station = self._station()
        for ein in range(9):
            station._handle_registration(
                _registration_frame(ein, SERVICE_GPS), SlotResult())
        assert station.registration.active_gps == 8
        assert station.stats.registrations_rejected_capacity == 1

    def test_gps_slot_rejections_counted(self):
        station = self._station()
        # Exhaust the slot pool behind the registry's back, so admission
        # passes the capacity check but fails slot assignment.
        for fake_uid in range(50, 58):
            station.gps_mgr.admit(fake_uid)
        station._handle_registration(
            _registration_frame(1, SERVICE_GPS), SlotResult())
        assert station.stats.registrations_rejected_gps_slot == 1
        # The approved record was rolled back: no half-registered user.
        assert station.registration.lookup_ein(1) is None


class TestChaosExperiment:
    def test_fault_plan_is_deterministic(self):
        from repro.experiments import chaos
        first = chaos.fault_plan(1.0, 1.0, 3, 140, 25)
        second = chaos.fault_plan(1.0, 1.0, 3, 140, 25)
        assert first == second
        assert any(spec.kind == "crash" for spec in first)

    def test_quick_grid_has_zero_invariant_violations(self):
        from repro.experiments import chaos
        result = chaos.run(quick=True, seeds=(1,), jobs=1, cache=False)
        column = result.headers.index("inv_violations")
        assert all(row[column] == 0 for row in result.rows)
        recoveries = result.headers.index("recoveries")
        assert all(row[recoveries] > 0 for row in result.rows)


class TestStormSemantics:
    """Control-field storm counts, pinned on a perfect channel.

    A storm ``@a+d`` loses CF1 of cycles a+1..a+d and CF2 of cycles
    a..a+d-1: 2d lost deliveries per target, of which the d CF1 sets
    are the ones a data user is listening to.
    """

    @staticmethod
    def _storm(num_data_users, schedule):
        run = run_cell_detailed(CellConfig(
            num_data_users=num_data_users, num_gps_users=0, cycles=30,
            warmup_cycles=0, seed=1, faults=parse_faults(schedule)))
        return run.stats.cf_storm_drops, run.stats.cf_losses

    def test_one_window(self):
        assert self._storm(1, "cf_storm:data-0@10+3") == (6, 3)

    def test_overlapping_windows_lose_each_set_once(self):
        assert self._storm(
            1, "cf_storm:data-0@10+3;cf_storm:data-0@12+2") == (8, 4)

    def test_wildcard_storms_every_subscriber(self):
        assert self._storm(3, "cf_storm:*@10+3") == (18, 10)

    def test_gate_matches_a_scan_over_every_window(self):
        from types import SimpleNamespace

        from repro.faults.injector import StormGate
        from repro.phy.channel import Transmission

        rng = random.Random(5)
        heard = []
        stats = SimpleNamespace(cf_storm_drops=0)
        gate = StormGate(lambda transmission, ok: heard.append(ok), stats)
        windows = []
        now = 0.0
        drops = 0
        for _ in range(400):
            if rng.random() < 0.3:
                # Like a runtime op: the new window opens after now.
                start = now + rng.choice((0.5, 1.0, 2.0, 5.0))
                window = (start, start + rng.choice((0.5, 1.0, 3.0)))
                windows.append(window)
                gate.add(*window)
            now += rng.choice((0.0, 0.25, 0.5, 1.0))
            ok = rng.random() < 0.9
            kind = rng.choice(("cf1", "cf2", "data"))
            gate(Transmission("bs", None, now, 0.1, kind=kind), ok)
            stormed = kind != "data" and any(
                start <= now < end for start, end in windows)
            assert heard.pop() == (ok and not stormed)
            drops += ok and stormed
        assert stats.cf_storm_drops == drops > 0

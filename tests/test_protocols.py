"""Tests for the surveyed baseline MAC protocols (Section 4)."""

import random

import pytest

from repro.protocols import (
    DRMA,
    DynamicTDMA,
    PRMA,
    RAMA,
    SlottedAloha,
    VoiceModel,
)
from repro.protocols.base import (
    DataTerminal,
    ProtocolStats,
    VoiceTerminal,
    resolve_contention,
)
from repro.protocols.rama import run_auction


class TestBase:
    def test_resolve_contention_semantics(self):
        stats = ProtocolStats()
        assert resolve_contention([], 0, stats) is None
        assert stats.slots_idle == 1
        winner = resolve_contention(["a"], 1, stats)
        assert winner == "a"
        assert resolve_contention(["a", "b"], 2, stats) is None
        assert stats.slots_collided == 1
        assert stats.slots_total == 3

    def test_voice_model_activity_factor(self):
        model = VoiceModel(mean_spurt_frames=25, mean_silence_frames=35)
        rng = random.Random(1)
        talking = False
        active = 0
        trials = 40000
        for _ in range(trials):
            talking = model.advance(talking, rng)
            active += talking
        assert abs(active / trials - model.activity_factor) < 0.03
        # theoretical: 25 / (25 + 35)
        assert model.activity_factor == pytest.approx(25 / 60)

    def test_voice_terminal_drops_late_packets(self):
        stats = ProtocolStats()
        terminal = VoiceTerminal(0, VoiceModel(), max_delay_slots=10)
        terminal.pending.append(
            type("P", (), {"created_slot": 0})())
        terminal.drop_expired(current_slot=11, stats=stats)
        assert stats.voice_packets_dropped == 1
        assert not terminal.pending

    def test_data_terminal_queues(self):
        stats = ProtocolStats()
        terminal = DataTerminal(0, arrival_probability=1.0)
        rng = random.Random(2)
        terminal.maybe_arrive(5, rng, stats)
        assert len(terminal.pending) == 1
        assert terminal.transmit(8, stats)
        assert stats.data_delay_slots.count == 1
        assert stats.data_delay_slots.max == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VoiceModel(mean_spurt_frames=0)
        with pytest.raises(ValueError):
            DataTerminal(0, arrival_probability=2.0)


class TestSlottedAloha:
    def test_peak_throughput_near_1_over_e(self):
        """Saturated ALOHA with p ~ 1/N peaks near 1/e = 0.368."""
        num_terminals = 20
        protocol = SlottedAloha(num_terminals=num_terminals,
                                arrival_probability=1.0,  # saturated
                                transmit_probability=1.0 / num_terminals,
                                seed=3)
        stats = protocol.run(20000)
        assert 0.33 < stats.throughput() < 0.41

    def test_light_load_throughput_matches_offered(self):
        protocol = SlottedAloha(num_terminals=10,
                                arrival_probability=0.01,
                                transmit_probability=0.5, seed=4)
        stats = protocol.run(20000)
        assert stats.throughput() == pytest.approx(0.1, abs=0.03)

    def test_aggressive_transmit_probability_collapses(self):
        saturated = SlottedAloha(num_terminals=20,
                                 arrival_probability=1.0,
                                 transmit_probability=0.5, seed=5)
        stats = saturated.run(5000)
        assert stats.throughput() < 0.05  # collision collapse

    def test_validation(self):
        with pytest.raises(ValueError):
            SlottedAloha(0, 0.1)
        with pytest.raises(ValueError):
            SlottedAloha(5, 0.1, transmit_probability=0.0)


class TestRamaAuction:
    def test_auction_always_produces_single_winner(self):
        rng = random.Random(6)
        for population in (1, 2, 5, 17, 50):
            contenders = list(range(population))
            winner = run_auction(contenders, id_bits=8, rng=rng)
            assert winner in contenders

    def test_empty_auction(self):
        assert run_auction([], 8, random.Random(7)) is None

    def test_auction_winner_varies(self):
        rng = random.Random(8)
        contenders = list(range(10))
        winners = {run_auction(contenders, 8, rng) for _ in range(100)}
        assert len(winners) > 3  # randomized, not biased to one terminal


class TestProtocolBehaviour:
    def make(self, cls, **kwargs):
        defaults = dict(num_voice=10, num_data=10, seed=9)
        defaults.update(kwargs)
        return cls(**defaults)

    @pytest.mark.parametrize("cls", [PRMA, DynamicTDMA, RAMA, DRMA])
    def test_runs_and_carries_traffic(self, cls):
        protocol = self.make(cls, data_arrival_probability=0.02)
        stats = protocol.run(300)
        assert stats.slots_total > 0
        assert stats.slots_carrying_payload > 0
        assert stats.voice_packets_delivered > 0
        assert stats.data_packets_delivered > 0

    @pytest.mark.parametrize("cls", [PRMA, DynamicTDMA, RAMA, DRMA])
    def test_counters_consistent(self, cls):
        protocol = self.make(cls, data_arrival_probability=0.02)
        stats = protocol.run(200)
        assert (stats.slots_carrying_payload + stats.slots_idle
                + stats.slots_collided) <= stats.slots_total
        assert stats.data_packets_delivered \
            <= stats.data_packets_generated

    def test_prma_voice_reservation_holds(self):
        protocol = PRMA(num_voice=2, num_data=0, slots_per_frame=5,
                        p_voice=0.5,
                        voice_model=VoiceModel(mean_spurt_frames=1000,
                                               mean_silence_frames=1),
                        seed=10)
        stats = protocol.run(100)
        # Long spurts: after winning once, terminals keep their slots --
        # voice packets flow nearly every frame without repeated contention.
        assert stats.voice_packets_delivered > 150

    def test_prma_degrades_under_heavy_data_contention(self):
        """The survey's critique: PRMA utilization collapses under load."""
        light = PRMA(num_voice=0, num_data=5,
                     data_arrival_probability=0.005, p_data=0.2,
                     seed=11).run(500)
        heavy = PRMA(num_voice=0, num_data=50,
                     data_arrival_probability=0.2, p_data=0.2,
                     seed=11).run(500)
        assert heavy.collision_rate() > 5 * max(light.collision_rate(),
                                                0.01)

    def test_rama_reservations_beat_aloha_reservations(self):
        """Deterministic auctions waste no reservation slots: under a
        registration-heavy load RAMA grants strictly more reservations
        than D-TDMA's colliding ALOHA minislots."""
        kwargs = dict(num_voice=30, num_data=30,
                      data_arrival_probability=0.08,
                      voice_slots=10, data_slots=6, seed=12)
        dtdma = DynamicTDMA(reservation_slots=4, **kwargs).run(400)
        rama = RAMA(auction_slots=4, **kwargs).run(400)
        assert rama.throughput() > dtdma.throughput()

    def test_drma_no_reservation_overhead_when_saturated(self):
        """DRMA converts slots to reservations only when capacity is
        spare; once the voice population owns every slot, (almost) every
        slot carries payload -- no standing reservation overhead."""
        protocol = DRMA(num_voice=12, num_data=0, slots_per_frame=10,
                        voice_model=VoiceModel(mean_spurt_frames=10000,
                                               mean_silence_frames=1),
                        seed=13)
        stats = protocol.run(600)
        assert stats.throughput() > 0.7
        # At most 10 grants ever coexist (slot capacity).
        assert len(protocol.voice_grants) <= 10

    def test_voice_drop_probability_increases_with_population(self):
        small = DynamicTDMA(num_voice=8, num_data=0, voice_slots=10,
                            seed=14).run(400)
        large = DynamicTDMA(num_voice=60, num_data=0, voice_slots=10,
                            seed=14).run(400)
        assert large.voice_drop_probability() \
            >= small.voice_drop_probability()
        assert large.voice_drop_probability() > 0.05

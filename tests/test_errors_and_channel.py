"""Tests for channel error models and the forward/reverse channels."""

import random

import pytest

from repro.phy.channel import (
    ForwardChannel,
    Link,
    ReverseChannel,
    Transmission,
)
from repro.phy.errors import (
    GilbertElliottModel,
    IndependentSymbolErrors,
    OutageModel,
    PerfectChannelModel,
)
from repro.phy.rs import RS_64_48, ReedSolomon
from repro.sim import Simulator


class TestErrorModels:
    def test_perfect_changes_nothing(self):
        rng = random.Random(1)
        codeword = list(range(64))
        assert PerfectChannelModel().corrupt(codeword, rng) == codeword

    def test_iid_error_rate_statistics(self):
        rng = random.Random(2)
        model = IndependentSymbolErrors(0.1)
        flips = 0
        trials = 200
        for _ in range(trials):
            out = model.corrupt([0] * 64, rng)
            flips += sum(1 for symbol in out if symbol != 0)
        rate = flips / (trials * 64)
        assert 0.08 < rate < 0.12

    def test_iid_rate_validation(self):
        with pytest.raises(ValueError):
            IndependentSymbolErrors(1.5)

    def test_gilbert_elliott_burstiness(self):
        """Errors cluster: conditional error probability after an error
        greatly exceeds the marginal error probability."""
        rng = random.Random(3)
        model = GilbertElliottModel(p_good=0.0, p_bad=0.5,
                                    p_good_to_bad=5e-4, p_bad_to_good=1e-2)
        stream = []
        for _ in range(400):
            out = model.corrupt([0] * 64, rng)
            stream.extend(1 if symbol else 0 for symbol in out)
        marginal = sum(stream) / len(stream)
        after_error = [stream[i + 1] for i in range(len(stream) - 1)
                       if stream[i]]
        assert marginal > 0
        conditional = sum(after_error) / len(after_error)
        assert conditional > 5 * marginal

    def test_gilbert_elliott_stationary_probability(self):
        model = GilbertElliottModel(p_good_to_bad=1e-4, p_bad_to_good=1e-2)
        assert model.stationary_bad_probability \
            == pytest.approx(1e-4 / (1e-4 + 1e-2))

    def test_gilbert_elliott_dichotomy_through_rs(self):
        """The paper's observed behaviour: codewords either decode clean
        or fail; the middle ground (delivered corrupted) never happens --
        guaranteed by construction, but fade bursts must actually produce
        a nonzero failure rate."""
        rng = random.Random(4)
        model = GilbertElliottModel(p_good=0.002, p_bad=0.4,
                                    p_good_to_bad=2e-3, p_bad_to_good=1e-2)
        outcomes = {"clean": 0, "failed": 0}
        message = bytes(48)
        for _ in range(300):
            received = model.corrupt(RS_64_48.encode(message), rng)
            try:
                decoded = RS_64_48.decode(received)
                assert decoded == message  # never silently corrupted
                outcomes["clean"] += 1
            except Exception:
                outcomes["failed"] += 1
        assert outcomes["failed"] > 5
        assert outcomes["clean"] > 100

    def test_outage_statistics(self):
        rng = random.Random(5)
        model = OutageModel(0.25)
        losses = sum(model.is_lost(rng) for _ in range(4000))
        assert 0.22 < losses / 4000 < 0.28

    def test_outage_corrupt_kills_codeword(self):
        rng = random.Random(6)
        model = OutageModel(1.0)
        received = model.corrupt(RS_64_48.encode(bytes(48)), rng)
        assert not RS_64_48.check(received)

    def test_ge_advance_resamples_state(self):
        rng = random.Random(7)
        model = GilbertElliottModel(p_good_to_bad=0.5, p_bad_to_good=0.5)
        model.state = model.BAD
        model.advance(10.0, rng)  # long gap: state resampled
        assert model.state in (model.GOOD, model.BAD)


class TestLink:
    def test_perfect_link_survives(self):
        link = Link()
        assert link.survives(5)
        assert link.codewords_sent == 5
        assert link.codewords_lost == 0

    def test_outage_link_statistics(self):
        link = Link(OutageModel(0.3), random.Random(8))
        survived = sum(link.survives(1) for _ in range(2000))
        assert 0.62 < survived / 2000 < 0.78

    def test_multi_codeword_transmission_all_or_nothing(self):
        link = Link(OutageModel(0.5), random.Random(9))
        for _ in range(50):
            link.survives(2)
        assert link.codewords_sent == 100

    def test_deliver_codewords_roundtrip(self):
        link = Link()
        message = bytes(range(48))
        decoded = link.deliver_codewords([RS_64_48.encode(message)])
        assert decoded == [message]

    def test_deliver_codewords_loss(self):
        link = Link(OutageModel(1.0), random.Random(10))
        assert link.deliver_codewords([RS_64_48.encode(bytes(48))]) is None

    def test_symbol_model_through_real_codec(self):
        link = Link(IndependentSymbolErrors(0.5), random.Random(11))
        survived = sum(link.survives(1) for _ in range(50))
        assert survived < 5  # half the symbols corrupted: hopeless

    @pytest.mark.parametrize("n,k", [(64, 48), (32, 24), (255, 223)])
    def test_clean_codeword_needs_no_encode(self, n, k):
        """RS codes are linear: the zero message encodes to the zero
        word, which ``survives`` corrupts as its clean codeword."""
        codec = ReedSolomon(n, k)
        assert codec.encode(bytes(codec.k)) == bytes(codec.n)
        link = Link(IndependentSymbolErrors(0.01), random.Random(12),
                    codec=codec)
        assert link._clean_codeword == bytes(codec.n)


class TestReverseChannel:
    def _tx(self, sim, sender, duration=1.0, start=None):
        return Transmission(sender=sender, payload=sender,
                            start=sim.now if start is None else start,
                            duration=duration)

    def test_lone_transmission_delivered(self):
        sim = Simulator()
        channel = ReverseChannel(sim)
        outcomes = []
        channel.add_listener(lambda tx, ok: outcomes.append((tx.sender, ok)))
        channel.transmit(self._tx(sim, "a"), Link())
        sim.run()
        assert outcomes == [("a", True)]

    def test_overlapping_transmissions_collide(self):
        sim = Simulator()
        channel = ReverseChannel(sim)
        outcomes = []
        channel.add_listener(lambda tx, ok: outcomes.append((tx.sender, ok,
                                                             tx.collided)))
        channel.transmit(self._tx(sim, "a"), Link())
        channel.transmit(self._tx(sim, "b"), Link())
        sim.run()
        assert outcomes == [("a", False, True), ("b", False, True)]
        assert channel.total_collisions == 2

    def test_sequential_transmissions_do_not_collide(self):
        sim = Simulator()
        channel = ReverseChannel(sim)
        outcomes = []
        channel.add_listener(lambda tx, ok: outcomes.append(ok))
        channel.transmit(self._tx(sim, "a", duration=1.0), Link())
        sim.call_at(1.5, lambda: channel.transmit(
            self._tx(sim, "b", duration=1.0), Link()))
        sim.run()
        assert outcomes == [True, True]

    def test_partial_overlap_still_collides(self):
        sim = Simulator()
        channel = ReverseChannel(sim)
        outcomes = []
        channel.add_listener(lambda tx, ok: outcomes.append(ok))
        channel.transmit(self._tx(sim, "a", duration=1.0), Link())
        sim.call_at(0.9, lambda: channel.transmit(
            self._tx(sim, "b", duration=1.0), Link()))
        sim.run()
        assert outcomes == [False, False]

    def test_lossy_link_marks_lost(self):
        sim = Simulator()
        channel = ReverseChannel(sim)
        outcomes = []
        channel.add_listener(lambda tx, ok: outcomes.append((ok,
                                                             tx.lost,
                                                             tx.collided)))
        channel.transmit(self._tx(sim, "a"),
                         Link(OutageModel(1.0), random.Random(1)))
        sim.run()
        assert outcomes == [(False, True, False)]

    def test_start_time_must_be_now(self):
        sim = Simulator()
        channel = ReverseChannel(sim)
        with pytest.raises(ValueError):
            channel.transmit(self._tx(sim, "a", start=5.0), Link())


class TestForwardChannel:
    def test_broadcast_reaches_all_receivers(self):
        sim = Simulator()
        channel = ForwardChannel(sim)
        received = []
        for name in ("a", "b", "c"):
            channel.attach(name, Link(),
                           lambda tx, ok, n=name: received.append((n, ok)))
        channel.broadcast(Transmission(sender="bs", payload="cf",
                                       start=0.0, duration=0.2))
        sim.run()
        assert sorted(received) == [("a", True), ("b", True), ("c", True)]

    def test_per_receiver_independent_loss(self):
        sim = Simulator()
        channel = ForwardChannel(sim)
        received = {}
        channel.attach("good", Link(),
                       lambda tx, ok: received.setdefault("good", ok))
        channel.attach("bad", Link(OutageModel(1.0), random.Random(2)),
                       lambda tx, ok: received.setdefault("bad", ok))
        channel.broadcast(Transmission(sender="bs", payload="cf",
                                       start=0.0, duration=0.2))
        sim.run()
        assert received == {"good": True, "bad": False}

    def test_detach(self):
        sim = Simulator()
        channel = ForwardChannel(sim)
        received = []
        channel.attach("a", Link(), lambda tx, ok: received.append("a"))
        channel.detach("a")
        channel.broadcast(Transmission(sender="bs", payload="x",
                                       start=0.0, duration=0.1))
        sim.run()
        assert received == []

    def test_delivery_at_end_time(self):
        sim = Simulator()
        channel = ForwardChannel(sim)
        times = []
        channel.attach("a", Link(), lambda tx, ok: times.append(sim.now))
        channel.broadcast(Transmission(sender="bs", payload="x",
                                       start=0.0, duration=0.28125))
        sim.run()
        assert times == [0.28125]

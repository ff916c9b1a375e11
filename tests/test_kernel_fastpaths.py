"""Tests for the hot-path refactor: the shared overlap helper, the
reference-aware RS decoder (against the full decoder, on four codes)
and the hoisted Gilbert-Elliott and i.i.d. draws.

The event kernel's ordering contract is a property test in
``tests/test_sim_kernel.py``; whole experiment outputs are pinned by
``tests/test_golden.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.phy.errors import GilbertElliottModel, IndependentSymbolErrors
from repro.phy.intervals import spans_overlap
from repro.phy.rs import RS_64_48, ReedSolomon, RSDecodeFailure


class TestSpansOverlap:
    """Half-open interval semantics shared by channel and scheduler."""

    def test_overlapping(self):
        assert spans_overlap(0.0, 2.0, 1.0, 3.0)
        assert spans_overlap(1.0, 3.0, 0.0, 2.0)

    def test_containment(self):
        assert spans_overlap(0.0, 10.0, 4.0, 5.0)
        assert spans_overlap(4.0, 5.0, 0.0, 10.0)

    def test_identical(self):
        assert spans_overlap(1.0, 2.0, 1.0, 2.0)

    def test_disjoint(self):
        assert not spans_overlap(0.0, 1.0, 2.0, 3.0)
        assert not spans_overlap(2.0, 3.0, 0.0, 1.0)

    def test_edge_touch_is_not_overlap(self):
        # [0, 1) and [1, 2) share only the boundary point, which the
        # half-open convention assigns to the second interval.
        assert not spans_overlap(0.0, 1.0, 1.0, 2.0)
        assert not spans_overlap(1.0, 2.0, 0.0, 1.0)

    def test_transmission_and_interval_agree(self):
        from repro.core.scheduler import Interval
        from repro.phy.channel import Transmission

        cases = [((0.0, 1.0), (1.0, 2.0)), ((0.0, 2.0), (1.0, 3.0)),
                 ((0.0, 1.0), (2.0, 3.0)), ((1.0, 2.0), (1.0, 2.0))]
        for (a_start, a_end), (b_start, b_end) in cases:
            expected = spans_overlap(a_start, a_end, b_start, b_end)
            first = Transmission(sender="a", payload=None, start=a_start,
                                 duration=a_end - a_start)
            second = Transmission(sender="b", payload=None, start=b_start,
                                  duration=b_end - b_start)
            assert first.overlaps(second) == expected
            assert (Interval(a_start, a_end).overlaps(
                Interval(b_start, b_end)) == expected)


def _outcome(call, *args):
    """(decoded info, None) or (None, the RSDecodeFailure message)."""
    try:
        return call(*args), None
    except RSDecodeFailure as exc:
        return None, str(exc)


class TestDecodeReferenceOracle:
    """decode_reference must agree with the full decoder on every input,
    failure messages included: its slow path decodes the error pattern,
    not the received word."""

    @pytest.fixture
    def codec(self):
        return RS_64_48

    def _assert_agree(self, codec: ReedSolomon, received: bytes,
                      clean: bytes) -> None:
        assert (_outcome(codec.decode_reference, received, clean)
                == _outcome(codec.decode, received))

    @pytest.mark.parametrize("errors", list(range(0, 17)))
    def test_exact_error_counts(self, codec, errors):
        # 17 counts spread over 0..2t: 0..16 itself for t = 8.
        errors = errors * codec.t // 8
        rng = random.Random(1000 + errors)
        for _ in range(8):
            message = bytes(rng.randrange(256) for _ in range(codec.k))
            clean = codec.encode(message)
            word = bytearray(clean)
            for position in rng.sample(range(codec.n), errors):
                word[position] ^= rng.randrange(1, 256)
            self._assert_agree(codec, bytes(word), clean)

    @pytest.mark.parametrize("state", [GilbertElliottModel.GOOD,
                                       GilbertElliottModel.BAD])
    def test_gilbert_elliott_states(self, codec, state):
        """Sweep both GE channel states against the oracle."""
        rng = random.Random(77 + state)
        model = GilbertElliottModel(p_good=0.01, p_bad=0.5,
                                    p_good_to_bad=0.05,
                                    p_bad_to_good=0.05)
        for trial in range(60):
            model.state = state
            message = bytes(rng.randrange(256) for _ in range(codec.k))
            clean = codec.encode(message)
            received = bytes(model.corrupt(clean, rng))
            self._assert_agree(codec, received, clean)

    def test_independent_symbol_errors(self, codec):
        rng = random.Random(5)
        for rate in (0.0, 0.05, 0.2):
            model = IndependentSymbolErrors(rate)
            for _ in range(25):
                message = bytes(rng.randrange(256)
                                for _ in range(codec.k))
                clean = codec.encode(message)
                received = bytes(model.corrupt(clean, rng))
                self._assert_agree(codec, received, clean)

    def test_length_mismatch_falls_back(self, codec):
        clean = codec.encode(bytes(codec.k))
        with pytest.raises(RSDecodeFailure):
            codec.decode_reference(clean[:-1], clean)

    def test_clean_word_skips_decoder(self, codec):
        message = bytes(range(codec.k))
        clean = codec.encode(message)
        assert codec.decode_reference(clean, clean) == message


OTHER_CODES = {"rs32_24": ReedSolomon(32, 24),
               "rs255_223": ReedSolomon(255, 223),
               "rs64_48_fcr1": ReedSolomon(64, 48, fcr=1)}


class TestDecodeReferenceOracleOtherCodes(TestDecodeReferenceOracle):
    """The same oracle on a shorter code, the full-length code and a
    nonzero first consecutive root."""

    @pytest.fixture(params=list(OTHER_CODES))
    def codec(self, request):
        return OTHER_CODES[request.param]


class TestDecodeReferenceMiscorrection:
    """Beyond t mismatches decode_reference must follow decode() into a
    miscorrection, not only into a failure.

    ``received`` is a second codeword c2 plus at most t symbol errors,
    and the reference is another codeword c1.  Codewords lie at least
    2t + 1 symbols apart, so ``received`` is more than t symbols from
    c1 and takes the slow path, where decode() returns c2's message.
    Random error patterns almost never miscorrect, so no oracle test
    above reaches this case.
    """

    @pytest.mark.parametrize("codec", [RS_64_48, OTHER_CODES["rs32_24"],
                                       OTHER_CODES["rs255_223"]],
                             ids=["rs64_48", "rs32_24", "rs255_223"])
    def test_follows_decode_to_another_codeword(self, codec):
        rng = random.Random(codec.n)
        for errors in range(codec.t + 1):
            first, second = (
                bytes(rng.randrange(256) for _ in range(codec.k))
                for _ in range(2))
            c1, c2 = codec.encode(first), codec.encode(second)
            received = bytearray(c2)
            for position in rng.sample(range(codec.n), errors):
                received[position] ^= rng.randrange(1, 256)
            received = bytes(received)
            assert sum(a != b for a, b in zip(received, c1)) > codec.t
            assert codec.decode(received) == second
            assert codec.decode_reference(received, c1) == second


class TestGilbertElliottDrawOrder:
    """The inlined corrupt() must consume RNG draws like the old loop."""

    def test_matches_reference_loop(self):
        model = GilbertElliottModel(p_good=0.1, p_bad=0.6,
                                    p_good_to_bad=0.1, p_bad_to_good=0.2)
        reference = GilbertElliottModel(p_good=0.1, p_bad=0.6,
                                        p_good_to_bad=0.1,
                                        p_bad_to_good=0.2)
        word = bytes(range(64))
        rng_a = random.Random(42)
        rng_b = random.Random(42)
        for _ in range(20):
            out = model.corrupt(word, rng_a)
            # Reference implementation: explicit per-symbol _step.
            expected = list(word)
            for index in range(len(expected)):
                reference._step(rng_b)
                p = (reference.p_bad
                     if reference.state == reference.BAD
                     else reference.p_good)
                if rng_b.random() < p:
                    expected[index] ^= rng_b.randrange(1, 256)
            assert out == expected
            assert model.state == reference.state
            assert rng_a.getstate() == rng_b.getstate()



class TestIndependentDrawOrder:
    """The hoisted i.i.d. corrupt() must consume RNG draws like a plain
    per-symbol loop."""

    def test_matches_reference_loop(self):
        model = IndependentSymbolErrors(0.3)
        word = bytes(range(64))
        rng_a = random.Random(42)
        rng_b = random.Random(42)
        for _ in range(20):
            out = model.corrupt(word, rng_a)
            expected = list(word)
            for index in range(len(expected)):
                if rng_b.random() < 0.3:
                    expected[index] ^= rng_b.randrange(1, 256)
            assert out == expected
            assert rng_a.getstate() == rng_b.getstate()

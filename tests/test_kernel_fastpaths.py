"""Tests for the hot-path refactor: the shared overlap helper, the
reference-aware RS fast path and the inlined Gilbert-Elliott draws.

The event kernel's ordering contract is a property test in
``tests/test_sim_kernel.py``; whole experiment outputs are pinned by
``tests/test_golden.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.phy.errors import GilbertElliottModel, IndependentSymbolErrors
from repro.phy.intervals import spans_overlap
from repro.phy.rs import RS_64_48, RSDecodeFailure


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


class TestDecodeReferenceOracle:
    """decode_reference must agree with the full decoder on every input."""

    def _assert_agree(self, received: bytes, clean: bytes) -> None:
        codec = RS_64_48
        try:
            oracle = codec.decode(received)
            oracle_failed = False
        except RSDecodeFailure:
            oracle, oracle_failed = None, True
        try:
            fast = codec.decode_reference(received, clean)
            fast_failed = False
        except RSDecodeFailure:
            fast, fast_failed = None, True
        assert fast_failed == oracle_failed
        assert fast == oracle

    @pytest.mark.parametrize("errors", list(range(0, 17)))
    def test_exact_error_counts(self, errors):
        rng = random.Random(1000 + errors)
        codec = RS_64_48
        for _ in range(8):
            message = bytes(rng.randrange(256) for _ in range(codec.k))
            clean = codec.encode(message)
            word = bytearray(clean)
            for position in rng.sample(range(codec.n), errors):
                word[position] ^= rng.randrange(1, 256)
            self._assert_agree(bytes(word), clean)

    @pytest.mark.parametrize("state", [GilbertElliottModel.GOOD,
                                       GilbertElliottModel.BAD])
    def test_gilbert_elliott_states(self, state):
        """Sweep both GE channel states against the oracle."""
        rng = random.Random(77 + state)
        codec = RS_64_48
        model = GilbertElliottModel(p_good=0.01, p_bad=0.5,
                                    p_good_to_bad=0.05,
                                    p_bad_to_good=0.05)
        for trial in range(60):
            model.state = state
            message = bytes(rng.randrange(256) for _ in range(codec.k))
            clean = codec.encode(message)
            received = bytes(model.corrupt(clean, rng))
            self._assert_agree(received, clean)

    def test_independent_symbol_errors(self):
        rng = random.Random(5)
        codec = RS_64_48
        for rate in (0.0, 0.05, 0.2):
            model = IndependentSymbolErrors(rate)
            for _ in range(25):
                message = bytes(rng.randrange(256)
                                for _ in range(codec.k))
                clean = codec.encode(message)
                received = bytes(model.corrupt(clean, rng))
                self._assert_agree(received, clean)

    def test_length_mismatch_falls_back(self):
        codec = RS_64_48
        clean = codec.encode(bytes(codec.k))
        with pytest.raises(RSDecodeFailure):
            codec.decode_reference(clean[:-1], clean)

    def test_clean_word_skips_decoder(self):
        codec = RS_64_48
        message = bytes(range(48))
        clean = codec.encode(message)
        assert codec.decode_reference(clean, clean) == message


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


"""Tests for the hot-path refactor: the shared overlap helper, the
reference-aware RS decoder (against the full decoder, on four codes),
the block-drawn Gilbert-Elliott and i.i.d. symbol errors (against
per-symbol loops) and the decision ``Link.survives`` makes from them.

The event kernel's ordering contract is a property test in
``tests/test_sim_kernel.py``; whole experiment outputs are pinned by
``tests/test_golden.py``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.channel import Link
from repro.phy.errors import (
    ErrorModel,
    GilbertElliottModel,
    IndependentSymbolErrors,
)
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


def iid_loop(p, n, rng):
    """The per-symbol i.i.d. loop, as sparse ``(index, value)`` errors."""
    found = []
    if p == 0.0:
        return found
    for index in range(n):
        if rng.random() < p:
            found.append((index, rng.randrange(1, 256)))
    return found


def ge_loop(model, n, rng):
    """The per-symbol Gilbert-Elliott loop: ``_step``, an error draw at
    the new state's probability, a value draw on an error."""
    found = []
    for index in range(n):
        model._step(rng)
        p = model.p_bad if model.state == model.BAD else model.p_good
        if rng.random() < p:
            found.append((index, rng.randrange(1, 256)))
    return found


def _nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(2.0, ulps))
    return min(max(value, 0.0), 1.0)


#: 0, 1, k/256 and k/65536 (the screens' byte and 16-bit limits) with
#: one ulp either way, and anything in between.
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.builds(lambda k, ulps: _nudged(k / 256, ulps),
              st.integers(0, 256), st.integers(-1, 1)),
    st.builds(lambda k, ulps: _nudged(k / 65536, ulps),
              st.integers(0, 65536), st.integers(-1, 1)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.02))
lengths = st.sampled_from([0, 1, 64, 255])
seeds = st.integers(0, 2**32 - 1)
CALLS = 30


class TestSymbolErrorKernel:
    """``errors()`` makes the per-symbol loops' draws from one block of
    words: over many calls on one stream the errors, the GE state and
    the stream state must equal the loops' after every call."""

    @settings(max_examples=300, deadline=None)
    @given(probabilities, lengths, seeds)
    def test_iid_matches_loop(self, p, n, seed):
        model = IndependentSymbolErrors(p)
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(CALLS):
            assert model.errors(n, rng) == iid_loop(p, n, reference)
            assert rng.getstate() == reference.getstate()

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(probabilities, probabilities, probabilities,
                     probabilities),
           st.sampled_from([GilbertElliottModel.GOOD,
                            GilbertElliottModel.BAD]),
           lengths, seeds)
    def test_gilbert_elliott_matches_loop(self, params, state, n, seed):
        model = GilbertElliottModel(*params)
        reference = GilbertElliottModel(*params)
        model.state = reference.state = state
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(CALLS):
            assert (model.errors(n, rng)
                    == ge_loop(reference, n, reference_rng))
            assert model.state == reference.state
            assert rng.getstate() == reference_rng.getstate()

    def test_corrupt_xors_the_errors_in(self):
        word = bytes(range(100, 164))
        model = GilbertElliottModel(p_good=0.05)
        found = model.errors(64, random.Random(3))
        assert found
        model.state = model.GOOD
        expected = list(word)
        for index, value in found:
            expected[index] ^= value
        assert model.corrupt(word, random.Random(3)) == expected

    def test_zero_rate_draws_nothing(self):
        rng = random.Random(4)
        state = rng.getstate()
        assert IndependentSymbolErrors(0.0).errors(64, rng) == []
        assert rng.getstate() == state


class Scripted(ErrorModel):
    """Returns prepared error lists, one per codeword, in order."""

    def __init__(self, *patterns):
        self.patterns = list(patterns)

    def errors(self, n, rng):
        return self.patterns.pop(0)


class TestSurvivesDecision:
    """``Link.survives`` decides a probe from its error count and runs
    the decoder only beyond t errors, with ``decode_reference``'s
    outcome on the all-zero codeword."""

    codec = RS_64_48

    def _link(self, *patterns):
        return Link(Scripted(*patterns), random.Random(0),
                    codec=ReedSolomon(self.codec.n, self.codec.k))

    def test_at_most_t_errors_survive_without_a_decode(self,
                                                       monkeypatch):
        t = self.codec.t
        spread = [(index * 7, 0xFF) for index in range(t)]
        link = self._link(spread, [(0, 1)], [])

        def no_decode(*args, **kwargs):
            raise AssertionError("decoded a correctable probe")

        monkeypatch.setattr(link.codec, "decode", no_decode)
        assert link.survives(3)
        assert (link.codewords_sent, link.codewords_lost) == (3, 0)

    def test_a_miscorrection_survives(self):
        # Another codeword's symbols plus t errors: the decoder returns
        # that codeword's message, which still counts as delivered.
        rng = random.Random(21)
        other = self.codec.encode(bytes(rng.randrange(256)
                                        for _ in range(self.codec.k)))
        pattern = bytearray(other)
        for index in rng.sample(range(self.codec.n), self.codec.t):
            pattern[index] ^= rng.randrange(1, 256)
        found = [(index, value) for index, value in enumerate(pattern)
                 if value]
        assert len(found) > self.codec.t
        assert self.codec.decode_reference(
            bytes(pattern), bytes(self.codec.n)) == other[:self.codec.k]
        link = self._link(found)
        assert link.survives(1)
        assert link.codewords_lost == 0

    def test_undecodable_errors_lose_the_transmission(self):
        t = self.codec.t
        rng = random.Random(5)
        while True:
            found = sorted((index, rng.randrange(1, 256))
                           for index in rng.sample(range(self.codec.n),
                                                   t + 1))
            pattern = bytearray(self.codec.n)
            for index, value in found:
                pattern[index] = value
            if _outcome(self.codec.decode, bytes(pattern))[1]:
                break
        second = [(0, 1)]
        link = self._link(found, second)
        assert not link.survives(2)
        assert (link.codewords_sent, link.codewords_lost) == (2, 2)
        # The second codeword is drawn only if the first survives.
        assert link.error_model.patterns == [second]


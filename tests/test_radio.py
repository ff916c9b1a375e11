"""Tests for the half-duplex radio audit (Section 2.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.radio import RX, TX, HalfDuplexRadio
from repro.phy.intervals import spans_overlap
from repro.phy.timing import MS_TURNAROUND_TIME


class TestOverlap:
    def test_tx_rx_overlap_violates(self):
        radio = HalfDuplexRadio()
        radio.claim(TX, 0.0, 1.0)
        radio.claim(RX, 0.5, 1.5)
        assert len(radio.violations) == 1
        assert "overlap" in radio.violations[0].reason

    def test_tx_tx_overlap_violates(self):
        """One transmitter: two simultaneous transmissions are impossible."""
        radio = HalfDuplexRadio()
        radio.claim(TX, 0.0, 1.0)
        radio.claim(TX, 0.5, 1.5)
        assert len(radio.violations) == 1

    def test_rx_rx_overlap_allowed(self):
        radio = HalfDuplexRadio()
        radio.claim(RX, 0.0, 1.0)
        radio.claim(RX, 0.5, 1.5)
        assert radio.violations == []


class TestTurnaround:
    def test_tx_to_rx_needs_20ms(self):
        radio = HalfDuplexRadio()
        radio.claim(TX, 0.0, 1.0)
        radio.claim(RX, 1.010, 2.0)  # only 10 ms gap
        assert len(radio.violations) == 1
        assert "turnaround" in radio.violations[0].reason

    def test_rx_to_tx_needs_20ms(self):
        radio = HalfDuplexRadio()
        radio.claim(RX, 0.0, 1.0)
        radio.claim(TX, 1.005, 2.0)
        assert len(radio.violations) == 1

    def test_exactly_20ms_is_legal(self):
        radio = HalfDuplexRadio()
        radio.claim(TX, 0.0, 1.0)
        radio.claim(RX, 1.020, 2.0)
        assert radio.violations == []

    def test_same_kind_needs_no_turnaround(self):
        radio = HalfDuplexRadio()
        radio.claim(TX, 0.0, 1.0)
        radio.claim(TX, 1.001, 2.0)
        assert radio.violations == []

    def test_out_of_order_claims_still_audited(self):
        radio = HalfDuplexRadio()
        radio.claim(RX, 5.0, 6.0)
        radio.claim(TX, 5.5, 5.8)  # claimed later, overlaps earlier claim
        assert len(radio.violations) == 1


class TestHousekeeping:
    def test_prune_bounds_memory(self):
        radio = HalfDuplexRadio()
        for index in range(100):
            radio.claim(TX, float(index), index + 0.5)
        radio.prune(before=90.0)
        assert radio.claim_count < 15

    def test_empty_interval_rejected(self):
        radio = HalfDuplexRadio()
        with pytest.raises(ValueError):
            radio.claim(TX, 1.0, 1.0)

    def test_unknown_kind_rejected(self):
        radio = HalfDuplexRadio()
        with pytest.raises(ValueError):
            radio.claim("duplex", 0.0, 1.0)

    def test_violation_records_claims(self):
        radio = HalfDuplexRadio(owner="sub-1")
        first = radio.claim(TX, 0.0, 1.0, label="data@3")
        second = radio.claim(RX, 0.5, 1.5, label="cf1")
        violation = radio.violations[0]
        assert violation.first == first
        assert violation.second == second
        assert radio.owner == "sub-1"


class _ReferenceClaim:
    __slots__ = ("kind", "start", "end", "label")

    def __init__(self, kind, start, end, label):
        self.kind = kind
        self.start = start
        self.end = end
        self.label = label


class _ReferenceRadio:
    """The audit as first written: ``__slots__`` claims, a ``reversed()``
    scan with the same break rule, and the same pair audit."""

    def __init__(self, turnaround=MS_TURNAROUND_TIME):
        self.turnaround = turnaround
        self.claims = []
        self.violations = []

    def claim(self, kind, start, end, label):
        claim = _ReferenceClaim(kind, start, end, label)
        for other in reversed(self.claims):
            if other.end + self.turnaround <= start:
                break
            self._audit_pair(other, claim)
        self.claims.append(claim)

    def _audit_pair(self, first, second):
        if spans_overlap(first.start, first.end, second.start, second.end):
            if first.kind == second.kind == RX:
                return
            self.violations.append((first, second,
                                    "transmit/receive overlap"))
            return
        if first.kind != second.kind:
            gap = max(second.start - first.end, first.start - second.end)
            if gap < self.turnaround - 1e-9:
                self.violations.append((
                    first, second,
                    f"turnaround gap {gap * 1000:.1f} ms < "
                    f"{self.turnaround * 1000:.0f} ms"))

    def prune(self, before):
        horizon = before - self.turnaround
        self.claims = [claim for claim in self.claims
                       if claim.end >= horizon]

    def tx_busy_until(self):
        return max((claim.end for claim in self.claims
                    if claim.kind == TX), default=0.0)


def _fields(claim):
    return (claim.kind, claim.start, claim.end, claim.label)


_T = MS_TURNAROUND_TIME
#: Offsets of a claim's start from the previous claim's end: back-steps,
#: overlaps, touching spans and gaps at and around the 20 ms turnaround.
_GAPS = st.one_of(
    st.sampled_from([-1.0, -0.3, -_T, -1e-9, 0.0, 1e-9, _T / 2,
                     _T - 2e-9, _T - 1e-9, _T, _T + 1e-9, _T + 2e-9,
                     0.5]),
    st.floats(-1.0, 1.0, allow_nan=False))
_DURATIONS = st.one_of(st.sampled_from([0.001, _T, 0.1, 1.0]),
                       st.floats(1e-3, 1.0, allow_nan=False))
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("claim"), st.sampled_from([TX, RX]), _GAPS,
              _DURATIONS),
    st.tuples(st.just("prune"), st.floats(-1.0, 1.0, allow_nan=False))),
    max_size=40)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_STEPS)
    def test_same_violations_as_reference(self, steps):
        radio = HalfDuplexRadio()
        reference = _ReferenceRadio()
        end = 10.0
        for index, step in enumerate(steps):
            if step[0] == "prune":
                radio.prune(end + step[1])
                reference.prune(end + step[1])
                continue
            _, kind, gap, duration = step
            start = end + gap
            end = start + duration
            radio.claim(kind, start, end, f"c{index}")
            reference.claim(kind, start, end, f"c{index}")
        assert [(_fields(v.first), _fields(v.second), v.reason)
                for v in radio.violations] \
            == [(_fields(first), _fields(second), reason)
                for first, second, reason in reference.violations]
        assert radio.tx_busy_until() == reference.tx_busy_until()
        assert radio.claim_count == len(reference.claims)

"""Small remaining units: frames, error-model edges, link accounting."""

import random

import pytest

from repro.core.frames import (
    DownlinkFrame,
    KIND_DATA,
    KIND_GPS,
    SLOT_DATA,
    SLOT_GPS,
    UplinkFrame,
)
from repro.phy.channel import Link, Transmission
from repro.phy.errors import GilbertElliottModel, OutageModel
from repro.phy.rs import RS_64_48


class TestFrames:
    def test_uplink_frame_defaults(self):
        frame = UplinkFrame(kind=KIND_DATA, cycle=3,
                            slot_kind=SLOT_DATA, slot_index=2,
                            packet=None)
        assert frame.uid is None
        assert frame.contention is False
        assert frame.first_attempt_time == 0.0

    def test_downlink_frame_defaults(self):
        frame = DownlinkFrame(kind="cf1", cycle=7)
        assert frame.slot_index == -1
        assert frame.uid is None

    def test_slot_kind_constants_distinct(self):
        assert SLOT_DATA != SLOT_GPS
        assert KIND_DATA != KIND_GPS


class TestTransmission:
    def test_overlap_semantics(self):
        first = Transmission(sender="a", payload=None, start=0.0,
                             duration=1.0)
        touching = Transmission(sender="b", payload=None, start=1.0,
                                duration=1.0)
        overlapping = Transmission(sender="c", payload=None, start=0.5,
                                   duration=1.0)
        assert not first.overlaps(touching)  # half-open intervals
        assert first.overlaps(overlapping)
        assert overlapping.overlaps(first)

    def test_has_real_codewords(self):
        placeholder = Transmission(sender="a", payload=None, start=0,
                                   duration=1, codewords=[b""])
        real = Transmission(sender="a", payload=None, start=0,
                            duration=1,
                            codewords=[RS_64_48.encode(bytes(48))])
        none = Transmission(sender="a", payload=None, start=0,
                            duration=1)
        assert not placeholder.has_real_codewords
        assert real.has_real_codewords
        assert not none.has_real_codewords

    def test_end_property(self):
        transmission = Transmission(sender="a", payload=None,
                                    start=2.0, duration=0.5)
        assert transmission.end == 2.5


class TestLinkAccounting:
    def test_loss_counters(self):
        link = Link(OutageModel(1.0), random.Random(1))
        assert not link.survives(3)
        assert link.codewords_sent == 3
        assert link.codewords_lost == 3

    def test_deliver_codewords_counts(self):
        link = Link()
        link.deliver_codewords([RS_64_48.encode(bytes(48))] * 2)
        assert link.codewords_sent == 2
        assert link.codewords_lost == 0

    def test_fidelity_flag_default_off(self):
        assert Link().full_fidelity is False


class TestErrorModelEdges:
    def test_ge_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottModel(p_good=-0.1)
        with pytest.raises(ValueError):
            GilbertElliottModel(p_bad=1.5)

    def test_outage_validation(self):
        with pytest.raises(ValueError):
            OutageModel(-0.1)
        with pytest.raises(ValueError):
            OutageModel(1.1)

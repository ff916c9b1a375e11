"""Unit and property tests for the control-field block (Fig. 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fields import AckEntry, ControlFields
from repro.phy import timing
from repro.phy.rs import RSDecodeFailure

uid_or_none = st.one_of(st.none(), st.integers(0, 62))


def ack_entries():
    return st.one_of(
        st.just(AckEntry.empty()),
        st.builds(AckEntry.data_ack, st.integers(0, 62)),
        st.builds(AckEntry.registration_reply,
                  st.integers(0, 0xFFFE), st.integers(0, 62)))


control_fields = st.builds(
    ControlFields,
    cycle=st.integers(0, 0xFFFF),
    which=st.sampled_from([1, 2]),
    gps_schedule=st.lists(uid_or_none, max_size=8),
    reverse_schedule=st.lists(uid_or_none, max_size=9),
    forward_schedule=st.lists(uid_or_none, max_size=37),
    reverse_acks=st.lists(ack_entries(), max_size=9),
    paging=st.lists(uid_or_none, max_size=18),
)


class TestAckEntry:
    def test_empty(self):
        entry = AckEntry.empty()
        assert entry.is_empty
        assert not entry.is_data_ack
        assert not entry.is_registration_reply

    def test_data_ack(self):
        entry = AckEntry.data_ack(17)
        assert entry.is_data_ack
        assert entry.uid == 17
        assert not entry.is_empty

    def test_shared_entries_equal_fresh_ones(self):
        assert AckEntry.empty() == AckEntry()
        for uid in range(63):
            assert AckEntry.data_ack(uid) == AckEntry(uid=uid)

    def test_registration_reply(self):
        entry = AckEntry.registration_reply(0xBEEF, 9)
        assert entry.is_registration_reply
        assert entry.ein == 0xBEEF
        assert entry.uid == 9


class TestEncoding:
    def test_used_bits_is_630(self):
        """Section 3.1: the control fields total exactly 630 bits."""
        cf = ControlFields(cycle=0, which=1)
        data = cf.encode()
        assert len(data) == 2 * timing.RS_INFO_BYTES  # two RS codewords

    def test_roundtrip_basic(self):
        cf = ControlFields(
            cycle=1234, which=2,
            gps_schedule=[1, 2, None, 4, None, None, None, None],
            reverse_schedule=[None, 5, 5, 6, None, None, None, None, 7],
            forward_schedule=[8] * 37,
            reverse_acks=[AckEntry.data_ack(5),
                          AckEntry.registration_reply(0x1001, 9)],
            paging=[10, 11])
        decoded = ControlFields.decode(cf.encode())
        assert decoded.cycle == 1234
        assert decoded.which == 2
        assert decoded.gps_schedule[:4] == [1, 2, None, 4]
        assert decoded.reverse_schedule[:9] \
            == [None, 5, 5, 6, None, None, None, None, 7]
        assert decoded.forward_schedule == [8] * 37
        assert decoded.reverse_acks[0] == AckEntry.data_ack(5)
        assert decoded.reverse_acks[1] \
            == AckEntry.registration_reply(0x1001, 9)
        assert decoded.reverse_acks[2].is_empty
        assert decoded.paging[:2] == [10, 11]
        assert all(entry is None for entry in decoded.paging[2:])

    @given(control_fields)
    def test_property_roundtrip(self, cf):
        decoded = ControlFields.decode(cf.encode())
        pad = lambda entries, size: (list(entries)
                                     + [None] * (size - len(entries)))
        assert decoded.gps_schedule == pad(cf.gps_schedule, 8)
        assert decoded.reverse_schedule == pad(cf.reverse_schedule, 9)
        assert decoded.forward_schedule == pad(cf.forward_schedule, 37)
        assert decoded.paging == pad(cf.paging, 18)
        assert decoded.cycle == cf.cycle
        assert decoded.which == cf.which
        expected_acks = (list(cf.reverse_acks)
                         + [AckEntry.empty()] * (9 - len(cf.reverse_acks)))
        assert decoded.reverse_acks == expected_acks

    def test_too_many_entries_rejected(self):
        with pytest.raises(ValueError):
            ControlFields(cycle=0, which=1,
                          gps_schedule=[1] * 9).encode()
        with pytest.raises(ValueError):
            ControlFields(cycle=0, which=1,
                          reverse_acks=[AckEntry.empty()] * 10).encode()

    def test_invalid_which_rejected(self):
        with pytest.raises(ValueError):
            ControlFields(cycle=0, which=3)


class TestRSIntegration:
    def test_codeword_roundtrip(self):
        cf = ControlFields(cycle=7, which=1,
                           gps_schedule=[3, 1, 4],
                           reverse_schedule=[None, 1, 5, 9, 2, 6, 5, 3, 5])
        codewords = cf.to_codewords()
        assert len(codewords) == 2
        assert all(len(cw) == 64 for cw in codewords)
        decoded = ControlFields.from_codewords(codewords)
        assert decoded.gps_schedule[:3] == [3, 1, 4]
        assert decoded.reverse_schedule \
            == [None, 1, 5, 9, 2, 6, 5, 3, 5]

    def test_codewords_survive_correctable_errors(self):
        import random
        rng = random.Random(3)
        cf = ControlFields(cycle=9, which=2, gps_schedule=[1, 2])
        codewords = [bytearray(cw) for cw in cf.to_codewords()]
        for codeword in codewords:
            for position in rng.sample(range(64), 8):
                codeword[position] ^= rng.randrange(1, 256)
        decoded = ControlFields.from_codewords(
            [bytes(cw) for cw in codewords])
        assert decoded.gps_schedule[:2] == [1, 2]

    def test_codewords_fail_loudly_beyond_capacity(self):
        import random
        rng = random.Random(4)
        cf = ControlFields(cycle=9, which=1)
        codewords = [bytearray(cw) for cw in cf.to_codewords()]
        for position in rng.sample(range(64), 30):
            codewords[0][position] ^= rng.randrange(1, 256)
        with pytest.raises(RSDecodeFailure):
            ControlFields.from_codewords([bytes(cw) for cw in codewords])


class TestDerivedViews:
    def test_active_gps_users_and_format(self):
        cf = ControlFields(cycle=0, which=1, gps_schedule=[1, 2, 3])
        assert cf.active_gps_users == 3
        assert cf.reverse_format == 2
        cf4 = ControlFields(cycle=0, which=1, gps_schedule=[1, 2, 3, 4])
        assert cf4.reverse_format == 1
        assert cf4.layout() is timing.FORMAT1

    def test_contention_slots_excludes_assigned(self):
        cf = ControlFields(cycle=0, which=1,
                           gps_schedule=[1, 2, 3, 4],  # format 1: 8 slots
                           reverse_schedule=[None, None, 5, 5, 6, 6, 7, 7])
        assert cf.contention_slots() == [0, 1]

    def test_contention_slots_never_include_last(self):
        cf = ControlFields(cycle=0, which=1, gps_schedule=[1, 2, 3, 4],
                           reverse_schedule=[None] * 8)
        assert cf.contention_slots() == list(range(7))  # slot 7 excluded

    def test_contention_slots_format2(self):
        cf = ControlFields(cycle=0, which=1, gps_schedule=[1],
                           reverse_schedule=[None] + [2] * 7 + [None])
        # 9 data slots in format 2; slot 8 is last and excluded
        assert cf.contention_slots() == [0]

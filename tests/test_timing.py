"""Tests that the derived PHY timing matches Tables 1 and 2 of the paper."""

import pytest

from repro.phy import timing


def approx(value):
    return pytest.approx(value, abs=1e-9)


class TestTable1:
    """Every derived number printed in Table 1."""

    def test_symbol_rates(self):
        assert timing.FORWARD_SYMBOL_RATE == 3200
        assert timing.REVERSE_SYMBOL_RATE == 2400

    def test_ps_frame(self):
        assert timing.PS_FRAME_SYMBOLS == 150
        assert timing.PS_FRAME_INFO_SYMBOLS == 128
        assert timing.PS_FRAME_PILOTS == 22  # 15 periodic + 7 leading
        assert timing.PS_FRAME_EFFICIENCY == approx(128 / 150)

    def test_rs_codeword_bits(self):
        assert timing.RS_INFO_BITS == 384
        assert timing.RS_CODED_BITS == 512

    def test_regular_packet_spans_two_ps_frames(self):
        # 512 coded bits -> 256 symbols -> 2 PS frames -> 300 symbols
        assert timing.RS_CODEWORD_SYMBOLS == 300
        assert timing.REGULAR_PACKET_SYMBOLS == 300

    def test_regular_packet_times(self):
        assert timing.REGULAR_PACKET_TIME_FORWARD == approx(300 / 3200)
        assert timing.REGULAR_PACKET_TIME_REVERSE == approx(0.125)

    def test_cycle_preamble(self):
        assert timing.FORWARD_PREAMBLE_TOTAL_SYMBOLS == 450
        assert timing.CYCLE_PREAMBLE_TIME == approx(0.140625)

    def test_gps_packet_parameters(self):
        assert timing.GPS_PACKET_INFO_BITS == 72
        assert timing.GPS_PACKET_SYMBOLS == 128
        assert timing.GPS_PREAMBLE_SYMBOLS == 64
        assert timing.GPS_SLOT_SYMBOLS == 210
        assert timing.GPS_SLOT_TIME == approx(0.0875)

    def test_regular_packet_framing(self):
        assert timing.REGULAR_PREAMBLE_SYMBOLS == 600
        assert timing.REGULAR_POSTAMBLE_SYMBOLS == 51
        assert timing.GUARD_SYMBOLS == 18
        assert timing.GUARD_TIME == approx(0.0075)
        assert timing.REGULAR_SLOT_SYMBOLS == 969
        assert timing.DATA_SLOT_TIME == approx(0.40375)

    def test_preamble_times_from_table(self):
        assert 600 / 2400 == approx(0.25)  # regular packet preamble
        assert 51 / 2400 == approx(0.02125)  # postamble
        assert 64 / 2400 == approx(0.0266666666667)  # GPS preamble


class TestCycleGeometry:
    """Section 3.3/3.4 derivations."""

    def test_n_37_forward_slots(self):
        # N = (12800 - 450 - 2*600) / 300 = 37 (Section 3.4)
        assert timing.NUM_FORWARD_DATA_SLOTS == 37

    def test_cycle_length(self):
        assert timing.CYCLE_LENGTH == approx(3.984375)  # paper: 3.9844

    def test_reverse_content_length(self):
        # 8 GPS slots + 8 data slots = 3.93 s (Section 3.3)
        assert timing.REVERSE_CONTENT_LENGTH == approx(3.93)

    def test_format2_content_matches_format1(self):
        # 3 GPS + 9 data + 0.03375 guard == 8 GPS + 8 data
        format2 = (3 * timing.GPS_SLOT_TIME + 9 * timing.DATA_SLOT_TIME
                   + timing.FORMAT2_TAIL_GUARD)
        assert format2 == approx(timing.REVERSE_CONTENT_LENGTH)

    def test_reverse_tail_guard(self):
        # paper rounds 0.054375 to 0.0544
        assert timing.REVERSE_TAIL_GUARD == approx(3.984375 - 3.93)

    def test_reverse_shift(self):
        # delta = preamble + CF1 + 20 ms = 0.30125 s (Section 3.4)
        assert timing.REVERSE_SHIFT == approx(0.30125)

    def test_five_gps_slots_merge_into_one_data_slot(self):
        # the conversion 5 GPS slots <-> 1 data slot must actually fit
        assert (timing.GPS_SLOTS_PER_DATA_SLOT * timing.GPS_SLOT_TIME
                >= timing.DATA_SLOT_TIME)

    def test_control_field_budget(self):
        # 630 bits used out of 768 available; 138 reserved (Section 3.1)
        assert timing.CONTROL_FIELD_INFO_BITS == 768
        assert timing.CONTROL_FIELD_USED_BITS == 630
        assert timing.CONTROL_FIELD_INFO_BITS \
            - timing.CONTROL_FIELD_USED_BITS == 138

    def test_control_field_bit_breakdown(self):
        gps = timing.GPS_SCHEDULE_ENTRIES * 6  # 48
        reverse = timing.REVERSE_SCHEDULE_ENTRIES * 6  # 54
        forward = timing.FORWARD_SCHEDULE_ENTRIES * 6  # 222
        acks = timing.REVERSE_ACK_ENTRIES * 22  # 198
        paging = timing.PAGING_ENTRIES * 6  # 108
        assert gps == 48
        assert reverse == 54
        assert forward == 222
        assert gps + reverse + forward + acks + paging == 630


class TestTable2:
    """Reverse channel access times, format 1 and format 2."""

    FORMAT1_GPS = [0.30125, 0.38875, 0.47625, 0.56375,
                   0.65125, 0.73875, 0.82625, 0.91375]
    FORMAT1_DATA = [1.00125, 1.40500, 1.80875, 2.21250,
                    2.61625, 3.02000, 3.42375, 3.82750]
    FORMAT2_GPS = [0.30125, 0.38875, 0.47625]
    # The paper's Table 2 lists 2.98625 for both data slots 7 and 8 of
    # format 2 -- an obvious typo (equal-spaced slots); the arithmetic
    # gives 3.39000 for slot 8 and the paper itself lists 3.39000 for
    # slot 9... which is also inconsistent.  We trust the arithmetic:
    # slot k at 0.56375 + (k-1) * 0.40375.
    FORMAT2_DATA = [0.56375 + i * 0.40375 for i in range(9)]

    def test_format1_gps_offsets(self):
        assert list(timing.FORMAT1.gps_offsets) \
            == pytest.approx(self.FORMAT1_GPS, abs=1e-9)

    def test_format1_data_offsets(self):
        assert list(timing.FORMAT1.data_offsets) \
            == pytest.approx(self.FORMAT1_DATA, abs=1e-9)

    def test_format2_gps_offsets(self):
        assert list(timing.FORMAT2.gps_offsets) \
            == pytest.approx(self.FORMAT2_GPS, abs=1e-9)

    def test_format2_data_offsets(self):
        assert list(timing.FORMAT2.data_offsets) \
            == pytest.approx(self.FORMAT2_DATA, abs=1e-9)
        assert timing.FORMAT2.data_offsets[0] == pytest.approx(0.56375)

    def test_gps_offsets_shared_across_formats(self):
        """Format switches must not move GPS slots 0-2 (QoS safety)."""
        assert timing.FORMAT1.gps_offsets[:3] == timing.FORMAT2.gps_offsets

    def test_format_selection(self):
        for count in range(0, 4):
            assert timing.reverse_layout(count).format_id == 2
        for count in range(4, 9):
            assert timing.reverse_layout(count).format_id == 1
        with pytest.raises(ValueError):
            timing.reverse_layout(-1)

    def test_first_gps_slot_follows_cf1_by_exactly_20ms(self):
        cf1_end = (timing.FORWARD_PREAMBLE1_SYMBOLS
                   / timing.FORWARD_SYMBOL_RATE + timing.CONTROL_FIELD_TIME)
        assert timing.FORMAT1.gps_offsets[0] - cf1_end \
            == pytest.approx(timing.MS_TURNAROUND_TIME)

    def test_only_last_data_slot_overlaps_next_cf1(self):
        """Section 3.4: after the shift, the only reverse slot overlapping
        the next cycle's first control fields is the last data slot."""
        for layout in (timing.FORMAT1, timing.FORMAT2):
            next_cf1_start = timing.CYCLE_LENGTH
            next_cf1_end = timing.CYCLE_LENGTH + timing.CF1_END
            ends = ([offset + timing.GPS_SLOT_TIME
                     for offset in layout.gps_offsets]
                    + [offset + timing.DATA_SLOT_TIME
                       for offset in layout.data_offsets])
            overlapping = [end for end in ends if end > next_cf1_start]
            assert len(overlapping) == 1
            # ... and it ends before CF1 does, so the base station can
            # acknowledge it in CF2.
            assert overlapping[0] < next_cf1_end

    def test_forward_slot_offsets(self):
        assert timing.forward_slot_offset(0) \
            == pytest.approx(timing.CF1_END)
        assert timing.forward_slot_offset(1) \
            == pytest.approx(timing.CF2_END)
        last = timing.forward_slot_offset(36)
        assert last + timing.FORWARD_SLOT_TIME \
            == pytest.approx(timing.CYCLE_LENGTH)
        with pytest.raises(ValueError):
            timing.forward_slot_offset(37)
        with pytest.raises(ValueError):
            timing.forward_slot_offset(-1)

    def test_forward_cycle_is_gapless(self):
        """Preambles + CFs + 37 slots tile the cycle exactly."""
        total = (timing.FORWARD_PREAMBLE_TOTAL_SYMBOLS
                 + 2 * timing.CONTROL_FIELD_SYMBOLS
                 + 37 * timing.FORWARD_SLOT_SYMBOLS)
        assert total / timing.FORWARD_SYMBOL_RATE \
            == pytest.approx(timing.CYCLE_LENGTH)

    def test_reverse_layout_helpers(self):
        assert timing.FORMAT1.gps_slot_interval() == timing.GPS_SLOT_TIME
        assert timing.FORMAT1.data_slot_interval() == timing.DATA_SLOT_TIME

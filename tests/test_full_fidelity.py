"""Integration tests for full-fidelity mode.

With ``full_fidelity=True``, control fields and data packets are really
bit-packed, RS(64,48)-encoded, corrupted symbol-by-symbol, and decoded
at the receiver; the MAC operates on the decoded bits, with built-in
cross-checks (a decode that disagrees with the logical packet raises).
These tests exercise that whole path under live traffic.
"""

from repro import CellConfig, run_cell, run_cell_detailed
from repro.core.subscriber import ACTIVE


def fidelity_config(**overrides):
    defaults = dict(num_data_users=5, num_gps_users=2, load_index=0.5,
                    cycles=60, warmup_cycles=12, seed=8,
                    full_fidelity=True)
    defaults.update(overrides)
    return CellConfig(**defaults)


class TestCleanChannel:
    def test_matches_object_mode_results(self):
        """On a perfect channel, operating on decoded bits must give the
        same trajectory as operating on the logical objects."""
        object_mode = run_cell(fidelity_config(full_fidelity=False))
        bit_mode = run_cell(fidelity_config())
        assert object_mode.data_packets_delivered \
            == bit_mode.data_packets_delivered
        assert object_mode.registrations_completed \
            == bit_mode.registrations_completed
        assert object_mode.gps_packets_delivered \
            == bit_mode.gps_packets_delivered
        assert bit_mode.radio_violations == 0

    def test_everyone_registers_through_real_bits(self):
        run = run_cell_detailed(fidelity_config())
        assert all(u.state == ACTIVE for u in run.data_users)
        assert all(g.state == ACTIVE for g in run.gps_units)


class TestNoisyChannel:
    def test_correctable_noise_is_transparent(self):
        """SER 2% means ~1.3 errors per 64-symbol codeword: RS corrects
        everything and the MAC sees a clean channel."""
        stats = run_cell(fidelity_config(error_model="iid",
                                         symbol_error_rate=0.02))
        assert stats.cf_losses == 0
        assert stats.data_packets_sent == stats.data_packets_delivered \
            + (stats.data_packets_sent - stats.data_packets_delivered)
        assert stats.message_loss_rate() == 0.0
        assert stats.radio_violations == 0

    def test_heavy_noise_loses_but_recovers(self):
        """SER 8% (expected 5.1 errors/codeword, fat tail past t=8):
        codewords drop, the ACK machinery retransmits, traffic still
        flows, and nothing is ever delivered corrupted (the built-in
        wire-decode cross-check would raise)."""
        stats = run_cell(fidelity_config(error_model="iid",
                                         symbol_error_rate=0.08,
                                         cycles=100, warmup_cycles=15))
        assert stats.cf_losses > 0
        assert stats.data_packets_delivered > 20
        assert stats.data_packets_sent > stats.data_packets_delivered
        assert stats.radio_violations == 0

    def test_forward_traffic_through_real_codec(self):
        stats = run_cell(fidelity_config(forward_load_index=0.3,
                                         error_model="iid",
                                         symbol_error_rate=0.05))
        assert stats.forward_packets_sent > 0
        # Some downlink losses are expected at SER 5%.
        assert stats.forward_packets_delivered \
            <= stats.forward_packets_sent

    def test_gilbert_elliott_bursts(self):
        stats = run_cell(fidelity_config(error_model="ge",
                                         cycles=100, warmup_cycles=15))
        assert stats.data_packets_delivered > 20
        assert stats.radio_violations == 0

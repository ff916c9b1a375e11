"""Tests for the multi-cell network layer: backbone, routing, handoff."""

import pytest

from repro.cli import main as cli_main
from repro.core.config import CellConfig
from repro.network import (
    Backbone,
    BackboneLink,
    MultiCellConfig,
    build_network,
    run_network,
)
from repro.obs.registry import MetricsRegistry, set_default_registry
from repro.phy import timing
from repro.sim import Simulator


class TestBackboneLink:
    def test_latency_and_serialization(self):
        sim = Simulator()
        link = BackboneLink(sim, latency=0.010,
                            bandwidth_bytes_per_s=1000.0)
        arrivals = []
        link.send("a", 100, lambda item: arrivals.append((item, sim.now)))
        sim.run()
        # 100 bytes at 1000 B/s = 0.1 s serialization + 0.01 s latency.
        assert arrivals == [("a", pytest.approx(0.11))]

    def test_fifo_queueing(self):
        sim = Simulator()
        link = BackboneLink(sim, latency=0.0,
                            bandwidth_bytes_per_s=1000.0)
        arrivals = []
        link.send("a", 100, lambda item: arrivals.append((item, sim.now)))
        link.send("b", 100, lambda item: arrivals.append((item, sim.now)))
        sim.run()
        assert arrivals[0] == ("a", pytest.approx(0.1))
        assert arrivals[1] == ("b", pytest.approx(0.2))
        assert link.items_carried == 2
        assert link.bytes_carried == 200
        assert link.total_queueing_delay == pytest.approx(0.1)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BackboneLink(sim, latency=-1, bandwidth_bytes_per_s=1)
        with pytest.raises(ValueError):
            BackboneLink(sim, latency=0, bandwidth_bytes_per_s=0)


class TestBackbone:
    def test_links_created_on_demand(self):
        sim = Simulator()
        backbone = Backbone(sim)
        first = backbone.link(0, 1)
        assert backbone.link(0, 1) is first
        assert backbone.link(1, 0) is not first  # directed

    def test_no_self_links(self):
        backbone = Backbone(Simulator())
        with pytest.raises(ValueError):
            backbone.link(2, 2)

    def test_send_and_totals(self):
        sim = Simulator()
        backbone = Backbone(sim, latency=0.001,
                            bandwidth_bytes_per_s=10000)
        got = []
        backbone.send(0, 1, "x", 50, got.append)
        sim.run()
        assert got == ["x"]
        assert backbone.total_items == 1
        assert backbone.total_bytes == 50


def network_config(**overrides):
    cell = CellConfig(num_data_users=5, num_gps_users=1, load_index=0.0,
                      cycles=100, warmup_cycles=15, seed=3)
    defaults = dict(num_cells=2, cell=cell, load_index=0.4,
                    inter_cell_fraction=0.6, seed=3)
    defaults.update(overrides)
    return MultiCellConfig(**defaults)


class TestMultiCellRouting:
    def test_messages_cross_the_backbone(self):
        run = run_network(network_config(num_cells=3))
        stats = run.stats
        assert stats.messages_forwarded > 10
        assert stats.end_to_end_delay.count > 20
        assert run.network.backbone.total_items \
            == stats.messages_forwarded

    def test_intra_cell_messages_stay_local(self):
        run = run_network(network_config(inter_cell_fraction=0.0))
        assert run.stats.messages_forwarded == 0
        assert run.network.backbone.total_items == 0
        # The uplink still carries traffic (terminating at the BS).
        assert run.stats.messages_routed > 10

    def test_every_cell_operates_cleanly(self):
        run = run_network(network_config(num_cells=3))
        for cell in run.network.cells:
            assert cell.stats.radio_violations == 0
            assert cell.stats.registrations_completed \
                == cell.config.num_data_users + cell.config.num_gps_users

    def test_end_to_end_delay_exceeds_single_hop(self):
        """An inter-cell message pays uplink + backbone + downlink."""
        run = run_network(network_config())
        # Uplink alone takes ~3 cycles at this load; end-to-end adds the
        # downlink scheduling, so the mean must exceed one cycle time.
        assert run.stats.end_to_end_delay.mean > timing.CYCLE_LENGTH

    def test_delay_histogram_rows(self, tmp_path):
        """``repro network --cells 3 --handoffs 2 --metrics``: delays
        counted on arrival give the rows replayed samples gave."""
        registry = MetricsRegistry(enabled=False)
        previous = set_default_registry(registry)
        try:
            assert cli_main(["network", "--cells", "3", "--handoffs", "2",
                             "--metrics", str(tmp_path / "net.prom")]) == 0
        finally:
            set_default_registry(previous)
        (row,) = [row for row in registry.rows()
                  if row["name"] == "osu_network_end_to_end_delay_seconds"]
        assert list(row["buckets"].values()) \
            == [0, 0, 2, 18, 82, 124, 126, 127, 127, 127]
        assert row["sum"] == 2432.7909648033146
        assert row["count"] == 127

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MultiCellConfig(num_cells=0)
        with pytest.raises(ValueError):
            network_config(inter_cell_fraction=1.5)
        with pytest.raises(ValueError):
            MultiCellConfig(cell=CellConfig(load_index=0.5))


class TestHandoff:
    def test_subscriber_moves_and_reregisters(self):
        net = build_network(network_config())
        mover = net.cells[0].data_users[0]
        net.handoff(mover.ein, 1, at_time=40 * timing.CYCLE_LENGTH)
        net.run()
        assert net.stats.handoffs_completed == 1
        assert net.directory[mover.ein] == 1
        assert mover.state == "active"
        assert mover.uid is not None
        # The new cell approved one extra registration.
        assert net.cells[1].stats.registrations_completed \
            == net.cells[1].config.num_data_users \
            + net.cells[1].config.num_gps_users + 1

    def test_round_trip_handoff(self):
        net = build_network(network_config())
        mover = net.cells[0].data_users[1]
        net.handoff(mover.ein, 1, at_time=30 * timing.CYCLE_LENGTH)
        net.handoff(mover.ein, 0, at_time=70 * timing.CYCLE_LENGTH)
        net.run()
        assert net.stats.handoffs_completed == 2
        assert net.directory[mover.ein] == 0
        assert mover.state == "active"

    def test_no_radio_violations_across_handoff(self):
        net = build_network(network_config())
        mover = net.cells[0].data_users[0]
        net.handoff(mover.ein, 1, at_time=40 * timing.CYCLE_LENGTH)
        net.run()
        assert len(mover.radio.violations) == 0

    def test_messages_buffered_during_handoff_are_delivered(self):
        """Traffic addressed to a subscriber that is mid-handoff waits at
        the destination base station and flushes on registration."""
        net = build_network(network_config(inter_cell_fraction=0.0))
        mover = net.cells[0].data_users[0]
        move_at = 40 * timing.CYCLE_LENGTH
        net.handoff(mover.ein, 1, at_time=move_at)

        # Inject a message addressed to the mover right after it leaves,
        # while it has not yet registered in cell 1.
        from repro.traffic.messages import Message

        def inject():
            message = Message(message_id=999999, size_bytes=100,
                              created_at=net.sim.now,
                              destination_ein=mover.ein)
            net._route(source_cell=1, message=message)

        net.sim.call_at(move_at + 0.5, inject)
        received = []
        previous_hook = mover.on_message_received

        def on_received(packet):
            if packet.message_id == 999999:
                received.append(net.sim.now)
            if previous_hook:
                previous_hook(packet)

        mover.on_message_received = on_received
        net.run()
        assert net.stats.messages_buffered_for_registration >= 1
        assert received, "buffered message never reached the mover"

    def test_buffered_messages_flush_exactly_once_on_registration(self):
        """The paging path end to end: messages for a mid-handoff
        destination land in ``_waiting``, are counted, and the
        registration handler flushes each exactly once -- never again on
        later re-registrations."""
        net = build_network(network_config(load_index=0.0,
                                           inter_cell_fraction=0.0))
        mover = net.cells[0].data_users[0]
        move_at = 40 * timing.CYCLE_LENGTH
        net.handoff(mover.ein, 1, at_time=move_at)

        from repro.traffic.messages import Message

        def inject():
            # Two distinct messages while the mover is unregistered:
            # both must wait in _waiting, then flush together.
            for message_id in (777001, 777002):
                net._route(source_cell=1, message=Message(
                    message_id=message_id, size_bytes=120,
                    created_at=net.sim.now,
                    destination_ein=mover.ein))
            assert len(net._waiting[mover.ein]) == 2

        net.sim.call_at(move_at + 0.5, inject)
        deliveries = []
        previous_hook = mover.on_message_received

        def on_received(packet):
            if packet.message_id in (777001, 777002):
                deliveries.append((packet.message_id, net.sim.now))
            if previous_hook:
                previous_hook(packet)

        mover.on_message_received = on_received
        # A second handoff after the flush: re-registering in cell 0
        # must not replay the already-delivered messages.
        net.handoff(mover.ein, 0, at_time=70 * timing.CYCLE_LENGTH)
        net.run()
        assert net.stats.messages_buffered_for_registration == 2
        received_ids = sorted(message_id
                              for message_id, _time in deliveries)
        assert received_ids == [777001, 777002], deliveries
        assert all(at > move_at for _mid, at in deliveries)
        assert net._waiting == {}

    def test_uplink_queue_travels_with_subscriber(self):
        net = build_network(network_config(load_index=0.3,
                                           inter_cell_fraction=0.0))
        mover = net.cells[0].data_users[0]

        # Fill the mover's queue right before the handoff...
        from repro.traffic.messages import Message
        move_at = 40 * timing.CYCLE_LENGTH

        def fill():
            mover.submit_message(Message(message_id=888888,
                                         size_bytes=200,
                                         created_at=net.sim.now))

        net.sim.call_at(move_at - 0.1, fill)
        net.handoff(mover.ein, 1, at_time=move_at)
        net.run()
        # ...and the packets drain through the *new* cell.
        assert mover.state == "active"
        assert not mover.queue
        # Anything still in flight belongs to the very last cycle (its
        # ACK cycle lies beyond the end of the run).
        last_cycle = net.cells[1].base_station.cycle
        assert all(cycle >= last_cycle - 1
                   for cycle, _slot in mover.inflight)

    def test_handoff_validation(self):
        net = build_network(network_config())
        with pytest.raises(ValueError):
            net.handoff(0xDEAD, 1)
        with pytest.raises(ValueError):
            net.handoff(net.cells[0].data_users[0].ein, 7)


class TestEinLayout:
    """Cells' EIN blocks stay disjoint however many cells there are."""

    @staticmethod
    def five_cell_network():
        cell = CellConfig(num_data_users=3, num_gps_users=2,
                          load_index=0.0, cycles=100, warmup_cycles=15,
                          seed=3)
        return build_network(network_config(num_cells=5, cell=cell))

    def test_every_ein_is_distinct(self):
        net = self.five_cell_network()
        eins = [sub.ein for cell in net.cells
                for sub in cell.data_users + cell.gps_units]
        assert len(eins) == 25
        assert len(set(eins)) == len(eins)

    def test_handoff_into_cell_zero_registers_afresh(self):
        net = self.five_cell_network()
        mover = net.cells[4].data_users[0]
        assert mover.name == "c4-data-0"
        net.handoff(mover.ein, 0, at_time=40 * timing.CYCLE_LENGTH)
        net.run()
        cell = net.cells[0]
        assert cell.stats.registrations_completed == 3 + 2 + 1
        assert mover.uid is not None
        assert mover.uid not in {unit.uid for unit in cell.gps_units}


class TestGpsHandoff:
    def test_gps_unit_moves_between_cells(self):
        """A bus crossing a cell boundary: its GPS unit signs off, re-
        registers in the new cell, gets a GPS slot there (R2), and the
        old cell consolidates (R3/format switch)."""
        net = build_network(network_config())
        unit = net.cells[0].gps_units[0]
        move_at = 40 * timing.CYCLE_LENGTH

        def move():
            if unit.uid is None:
                return
            net.cells[0].base_station.sign_off(unit.uid)
            from repro.core.cell import _make_error_model
            from repro.phy.channel import Link
            stream = net.streams["gps-handoff"]
            target = net.cells[1]
            unit.relocate(
                target.base_station.forward,
                target.base_station.reverse,
                forward_link=Link(_make_error_model(net.config.cell,
                                                    stream), stream),
                reverse_link=Link(_make_error_model(net.config.cell,
                                                    stream), stream))

        net.sim.call_at(move_at, move)
        net.run()
        assert unit.state == "active"
        new_bs = net.cells[1].base_station
        old_bs = net.cells[0].base_station
        assert new_bs.gps_mgr.slot_of(unit.uid) is not None
        assert old_bs.gps_mgr.active_count \
            == net.config.cell.num_gps_users - 1
        old_bs.gps_mgr.check_invariants()
        new_bs.gps_mgr.check_invariants()
        # The unit keeps reporting in its new cell with zero deadline
        # misses (the QoS clock restarts at activation).
        assert len(unit.radio.violations) == 0

    def test_gps_unit_hands_off_through_the_public_api(self):
        net = build_network(network_config())
        unit = net.cells[0].gps_units[0]
        net.handoff(unit.ein, 1, at_time=40 * timing.CYCLE_LENGTH)
        net.run()
        assert unit.state == "active"
        assert net.directory[unit.ein] == 1
        assert net.cells[1].base_station.gps_mgr.slot_of(unit.uid) \
            is not None
        assert net.cells[0].base_station.gps_mgr.active_count \
            == net.config.cell.num_gps_users - 1
        for cell in net.cells:
            assert cell.stats.gps_deadline_misses == 0
            assert cell.stats.radio_violations == 0

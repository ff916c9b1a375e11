"""Multi-cell networks: inter-cell forwarding and subscriber handoff.

:class:`MultiCellNetwork` is the one multicell engine.  It builds a
group of OSU-MAC cells on one simulator, connects their base stations
with the wired backbone, and adds the wide-area behaviours the paper's
system model describes (Section 2.2):

* **Inter-cell messages** -- a fraction of each subscriber's e-mails are
  addressed to another data subscriber of the network.  The source base
  station reassembles the message from its uplink fragments, forwards
  it over the backbone, and the destination base station fragments it
  into the destination subscriber's forward queue.
* **Location directory + buffering** -- the directory maps every EIN to
  the cell hosting it.  If the destination is not (yet) registered in
  its cell (e.g. mid-handoff), the message is buffered and delivered
  when its registration completes (this is what the paging field
  exists for).
* **Handoff** -- a data user or GPS unit can be moved between cells
  mid-run: it signs off, re-tunes, re-registers through the new cell's
  contention slots, and its uplink queue travels with it.

``repro network`` runs the engine over every cell of a
:class:`MultiCellConfig`, which is a 1 x N, one-shard, one-epoch
:class:`~repro.shard.config.CityConfig`.  Each ``repro city`` shard is
a :class:`~repro.shard.shard.ShardSim`: the engine over the shard's
block of cells, plus the cross-shard layer that turns messages and
handoffs for cells outside the block into envelopes.

Every random draw comes from a stream named by (seed, cell) or (seed,
EIN, hop count), and message ids are ``ein * 2**20 + counter``, so a
subscriber's workload is the same whichever group hosts it.  A group
keeps no state per past hop or per delivered message.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.cell import (
    EIN_CELL_STRIDE,
    CellRun,
    _make_link,
    _uplink_workload,
    build_cell,
    finalize_run,
)
from repro.core.config import CellConfig
from repro.core.gps_unit import GpsSubscriber
from repro.core.packets import PAYLOAD_BYTES, DataPacket, ForwardPacket
from repro.core.subscriber import DataSubscriber
from repro.metrics.stats import SummaryStats
from repro.network.backbone import Backbone
from repro.phy.channel import Link
from repro.sim import RandomStreams, Simulator
from repro.traffic.messages import Message, PoissonMessageSource

if TYPE_CHECKING:
    from repro.obs.registry import HistogramChild
    from repro.shard.config import CityConfig

#: Deterministic message ids: ``ein * 2**20 + counter``.
#: :class:`PoissonMessageSource` numbers messages from a process-global
#: counter, which depends on how many sources share the process -- i.e.
#: on shard topology -- so the engine overwrites every id with this
#: per-subscriber scheme before the message enters the MAC.
_MSG_ID_STRIDE = 1 << 20

#: Bucket bounds of ``osu_network_end_to_end_delay_seconds``, in seconds.
DELAY_BUCKETS = (1.0, 2.5, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


@dataclass
class MultiCellConfig:
    """Configuration of a multi-cell network.

    A network is a one-shard city (:meth:`city`) and takes the city's
    validation rules: logical-object only, no cell-level faults, and the
    network generates the addressed workload itself.
    """

    num_cells: int = 2
    cell: CellConfig = field(default_factory=lambda: CellConfig(
        num_data_users=6, num_gps_users=2, load_index=0.0))
    #: Target uplink load index per cell for the inter-cell workload.
    load_index: float = 0.4
    #: Fraction of messages addressed to a subscriber in another cell
    #: (the rest terminate at the local base station, e.g. outbound
    #: e-mail to the wired network).
    inter_cell_fraction: float = 0.5
    backbone_latency: float = 0.005
    backbone_bandwidth: float = 1_250_000.0
    seed: int = 1

    def __post_init__(self) -> None:
        self.city()

    def city(self) -> "CityConfig":
        """This network as a 1 x N, one-shard, one-epoch city."""
        from repro.shard.config import CityConfig, MobilityConfig

        return CityConfig(
            rows=1, cols=self.num_cells, num_shards=1, cell=self.cell,
            load_index=self.load_index,
            inter_cell_fraction=self.inter_cell_fraction,
            backbone_latency=self.backbone_latency,
            backbone_bandwidth=self.backbone_bandwidth,
            epochs=1, cycles_per_epoch=self.cell.cycles,
            warmup_cycles=self.cell.warmup_cycles,
            mobility=MobilityConfig(movers_per_cell=0), seed=self.seed)


@dataclass
class NetworkStats:
    """Network-level statistics (per-cell stats live in each CellRun).

    A view of :attr:`MultiCellNetwork.counters`.  A handoff is
    *requested* by the group its subscriber leaves and *completed* by
    the group it joins; within one network the two are equal.
    """

    messages_routed: int = 0
    messages_delivered_local: int = 0
    messages_forwarded: int = 0
    messages_buffered_for_registration: int = 0
    end_to_end_delay: SummaryStats = field(default_factory=SummaryStats)
    handoffs_requested: int = 0
    handoffs_completed: int = 0


@dataclass
class _PartialMessage:
    bytes_received: int = 0
    created_at: float = 0.0
    destination_ein: Optional[int] = None


class MultiCellNetwork:
    """The cells of one group + backbone + directory + router.

    The group is the block of cells shard ``shard_id`` of ``config``
    owns; a network built by :func:`build_network` has one shard, so it
    holds every cell.  Messages and handoffs for cells outside the group
    go to :meth:`_emit_message` and :meth:`_capture_departure`, which
    the cross-shard layer (:class:`~repro.shard.shard.ShardSim`)
    provides.
    """

    def __init__(self, config: "CityConfig", shard_id: int = 0):
        self.config = config
        self.shard_id = shard_id
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.cell_ids = config.cells_of_shard(shard_id)
        self._cell_set = frozenset(self.cell_ids)
        self.backbone = Backbone(self.sim, config.backbone_latency,
                                 config.backbone_bandwidth)
        #: ein -> cell currently hosting it, for every EIN of the city.
        #: Exact for the group's own subscribers; a shard learns of
        #: remote moves at the next epoch barrier.
        self.directory: Dict[int, int] = {
            ein: config.home_cell_of_ein(ein) for ein in config.all_eins()}
        self.runs: Dict[int, CellRun] = {}
        self._local: Dict[int, Any] = {}  # ein -> live subscriber
        self._sources: Dict[int, PoissonMessageSource] = {}
        self._msg_counter: Dict[int, int] = {}
        self._hop: Dict[int, int] = {}  # ein -> moves so far
        self._partial: Dict[Any, _PartialMessage] = {}
        #: Messages waiting for their destination to register: ein -> list.
        self._waiting: Dict[int, List[Message]] = {}
        self._forward_seq = 0
        self.end_to_end_delay = SummaryStats()
        # Imported here: a city's set-up imports this module and needs
        # nothing else from the obs package.
        from repro.obs.registry import HistogramChild

        self.delay_histogram = HistogramChild(DELAY_BUCKETS)
        #: The group's counters; a shard's epoch report digests them.
        self.counters: Dict[str, Any] = {
            "messages_routed": 0,
            "messages_delivered_local": 0,
            "messages_forwarded": 0,
            "messages_cross_shard": 0,
            "messages_buffered_for_registration": 0,
            "messages_hop_dropped": 0,
            "messages_received": 0,
            "end_to_end_delay_total": 0.0,
            "handoffs_local": 0,
            "handoffs_out": 0,
            "handoffs_in": 0,
            "handoffs_by_cell": {},  # "cell/kind" -> count
            "cross_shard_bytes": {},  # str(dst shard) -> bytes
        }

        self._cell_cfg = config.cell_config()
        self._data_eins = config.all_data_eins()
        #: (size distribution, mean interarrival) of the addressed
        #: workload, which runs at the group's ``load_index``.
        self._workload = None
        if config.load_index > 0 and self._cell_cfg.num_data_users:
            self._workload = _uplink_workload(dataclasses.replace(
                self._cell_cfg, load_index=config.load_index))

        for cell_id in self.cell_ids:
            run = build_cell(
                self._cell_cfg, sim=self.sim,
                streams=self.streams.spawn(f"cell-{cell_id}"),
                ein_offset=cell_id * EIN_CELL_STRIDE,
                name_prefix=f"c{cell_id}-")
            self.runs[cell_id] = run
            bs = run.base_station
            bs.on_data_packet = self._make_uplink_handler(cell_id)
            bs.on_registration = self._make_registration_handler(cell_id)
            for subscriber in run.data_users:
                self._adopt(subscriber)
                self._start_source(subscriber, hop=0,
                                   start_at=subscriber.entry_time)
            for unit in run.gps_units:
                self._adopt(unit)

    @property
    def cells(self) -> List[CellRun]:
        """The group's cells in cell order (``cells[i]`` is cell ``i``
        of a network)."""
        return [self.runs[cell_id] for cell_id in self.cell_ids]

    def _adopt(self, subscriber: Any) -> None:
        self._local[subscriber.ein] = subscriber
        self._hop.setdefault(subscriber.ein, 0)
        if isinstance(subscriber, DataSubscriber):
            subscriber.on_message_received = self._on_message_received

    def _ein_streams(self, ein: int) -> RandomStreams:
        # Derived afresh on each call: every per-hop stream name is
        # drawn from exactly once, so nothing needs keeping past a hop.
        return self.streams.spawn(f"ein-{ein}")

    def _hop_link(self, ein: int, hop: int, direction: str) -> Link:
        return _make_link(self._cell_cfg, self._ein_streams(ein),
                          f"link-{hop}-{direction}")

    # -- workload -----------------------------------------------------------

    def _start_source(self, subscriber: DataSubscriber, hop: int,
                      start_at: float) -> None:
        if self._workload is None:
            return
        sizes, interarrival = self._workload
        ein = subscriber.ein
        # Interarrival, sizes and addressing all draw from one per-hop
        # stream, in a fixed per-message order, so the workload of a
        # subscriber is a pure function of (seed, ein, hop) -- identical
        # whichever group hosts it.
        rng = self._ein_streams(ein)[f"traffic-hop{hop}"]
        # Destinations: any data EIN but ``ein`` (always one of them).
        # Choosing an index from a ``range`` makes the same draw as
        # choosing from a list of the others; the index then steps over
        # ``ein``'s place in the ascending list.
        eins = self._data_eins
        others = range(len(eins) - 1)
        own = bisect_left(eins, ein)

        def deliver(message: Message,
                    sub: DataSubscriber = subscriber) -> None:
            counter = self._msg_counter.get(ein, 0)
            self._msg_counter[ein] = counter + 1
            message.message_id = ein * _MSG_ID_STRIDE + counter
            if rng.random() < self.config.inter_cell_fraction and others:
                pick = rng.choice(others)
                message.destination_ein = eins[pick + (pick >= own)]
            sub.submit_message(message)

        self._sources[ein] = PoissonMessageSource(
            self.sim, rng, interarrival, sizes, deliver=deliver,
            start_at=start_at)

    # -- uplink -> routing --------------------------------------------------

    def _make_uplink_handler(self, cell_id: int) -> Callable:
        def handler(frame: Any, packet: DataPacket) -> None:
            key = (cell_id, packet.uid, packet.message_id)
            partial = self._partial.setdefault(key, _PartialMessage(
                created_at=packet.created_at,
                destination_ein=packet.destination_ein))
            partial.bytes_received += packet.payload_len
            if packet.destination_ein is not None:
                partial.destination_ein = packet.destination_ein
            if packet.more:
                return
            del self._partial[key]
            self.counters["messages_routed"] += 1
            if partial.destination_ein is None:
                return  # terminates at the base station (wired egress)
            message = Message(message_id=packet.message_id,
                              size_bytes=partial.bytes_received,
                              created_at=partial.created_at,
                              destination_ein=partial.destination_ein)
            self._route(cell_id, message)
        return handler

    def _route(self, source_cell: int, message: Message) -> None:
        dest_cell = self.directory.get(message.destination_ein)
        if dest_cell is None:
            return  # unknown destination: dropped at the source BS
        if dest_cell == source_cell:
            self.counters["messages_delivered_local"] += 1
            self._deliver_down(dest_cell, message)
            return
        self.counters["messages_forwarded"] += 1
        if dest_cell in self._cell_set:
            self.backbone.send(
                source_cell, dest_cell, message, message.size_bytes,
                lambda msg, src=source_cell: self._backbone_arrival(
                    src, msg))
        else:
            self._emit_message(message, dest_cell, source_cell)

    def _backbone_arrival(self, source_cell: int, message: Message,
                          hops: int = 0) -> None:
        """A message reaches the group over the backbone (``hops``:
        times it already left a group)."""
        # The destination may have moved while the message was on the
        # wire; re-resolve (and pass it on if it left the group).
        dest_cell = self.directory.get(message.destination_ein)
        if dest_cell is None:
            return
        if dest_cell in self._cell_set:
            self._deliver_down(dest_cell, message)
        else:
            self._emit_message(message, dest_cell, source_cell, hops)

    # -- downlink delivery --------------------------------------------------

    def _deliver_down(self, cell_id: int, message: Message) -> None:
        bs = self.runs[cell_id].base_station
        record = bs.registration.lookup_ein(message.destination_ein)
        if record is None:
            # Mid-handoff or still registering: buffer until the
            # registration completes (the paging field's job).
            self.counters["messages_buffered_for_registration"] += 1
            self._waiting.setdefault(message.destination_ein,
                                     []).append(message)
            return
        self._fragment_down(bs, record.uid, message)

    def _fragment_down(self, bs: Any, uid: int,
                       message: Message) -> None:
        fragments = message.fragments(PAYLOAD_BYTES)
        remaining = message.size_bytes
        for index in range(fragments):
            chunk = min(PAYLOAD_BYTES, remaining)
            remaining -= chunk
            bs.submit_forward(uid, ForwardPacket(
                uid=uid, seq=self._forward_seq % 4096,
                payload_len=chunk, message_id=message.message_id,
                more=index < fragments - 1,
                created_at=message.created_at))
            self._forward_seq += 1

    def _make_registration_handler(self, cell_id: int) -> Callable:
        def handler(record: Any) -> None:
            waiting = self._waiting.pop(record.ein, None)
            if not waiting:
                return
            bs = self.runs[cell_id].base_station
            for message in waiting:
                self._fragment_down(bs, record.uid, message)
        return handler

    def _on_message_received(self, packet: DataPacket) -> None:
        delay = self.sim.now - packet.created_at
        self.counters["messages_received"] += 1
        self.counters["end_to_end_delay_total"] += delay
        self.end_to_end_delay.push(delay)
        self.delay_histogram.observe(delay)

    # -- handoff ------------------------------------------------------------

    def handoff(self, ein: int, to_cell: int,
                at_time: Optional[float] = None) -> None:
        """Move subscriber ``ein`` to ``to_cell`` (now or at a set time).

        Data users and GPS units alike sign off, re-tune on fresh links
        and re-register in the new cell.  A move to the cell the
        subscriber is already in does nothing.
        """
        if not 0 <= to_cell < self.config.num_cells:
            raise ValueError(f"no such cell {to_cell}")
        if ein not in self._local:
            raise ValueError(f"unknown subscriber EIN {ein:#x}")
        if at_time is not None and at_time > self.sim.now:
            self.sim.call_at(at_time,
                             lambda: self.handoff(ein, to_cell))
            return
        subscriber = self._local[ein]
        from_cell = self.directory[ein]
        if to_cell == from_cell:
            return
        if subscriber.uid is not None:
            self.runs[from_cell].base_station.sign_off(subscriber.uid)
        hop = self._hop[ein] + 1
        self._hop[ein] = hop
        kind = ("gps" if isinstance(subscriber, GpsSubscriber)
                else "data")
        by_cell = self.counters["handoffs_by_cell"]
        key = f"{to_cell}/{kind}"
        by_cell[key] = by_cell.get(key, 0) + 1
        if to_cell not in self._cell_set:
            self._capture_departure(subscriber, from_cell, to_cell, hop)
            return
        target = self.runs[to_cell].base_station
        subscriber.relocate(
            target.forward, target.reverse,
            forward_link=self._hop_link(ein, hop, "fwd"),
            reverse_link=self._hop_link(ein, hop, "rev"))
        self.directory[ein] = to_cell
        self.counters["handoffs_local"] += 1

    # -- leaving the group: the cross-shard layer's job -----------------------

    def _emit_message(self, message: Message, dest_cell: int,
                      source_cell: int, hops: int = 0) -> None:
        """Send ``message`` toward ``dest_cell``, outside the group."""
        raise NotImplementedError(f"cell {dest_cell} is not in the group")

    def _capture_departure(self, subscriber: Any, from_cell: int,
                           to_cell: int, hop: int) -> None:
        """Hand ``subscriber`` to ``to_cell``, outside the group."""
        raise NotImplementedError(f"cell {to_cell} is not in the group")

    # -- execution ----------------------------------------------------------

    @property
    def stats(self) -> NetworkStats:
        """The network-level view of :attr:`counters`."""
        counters = self.counters
        return NetworkStats(
            messages_routed=counters["messages_routed"],
            messages_delivered_local=counters["messages_delivered_local"],
            messages_forwarded=counters["messages_forwarded"],
            messages_buffered_for_registration=counters[
                "messages_buffered_for_registration"],
            end_to_end_delay=self.end_to_end_delay,
            handoffs_requested=(counters["handoffs_local"]
                                + counters["handoffs_out"]),
            handoffs_completed=(counters["handoffs_local"]
                                + counters["handoffs_in"]))

    def run(self, until: Optional[float] = None) -> NetworkStats:
        duration = until if until is not None else self.config.duration
        self.sim.run(until=duration)
        for run in self.runs.values():
            finalize_run(run)
        stats = self.stats
        publish_network_stats(stats, self.backbone.total_bytes,
                              self.delay_histogram)
        return stats


def publish_network_stats(stats: NetworkStats, backbone_bytes: int,
                          delays: "HistogramChild") -> None:
    """Publish network-level totals into the obs metrics registry.

    A no-op unless the process-global registry is enabled (``--metrics``
    on the CLIs), same cost discipline as every other publishing site.
    Call once per finished run: counters are incremented by the run's
    totals, so ``repro obs`` and the Prometheus sidecar see multi-cell
    runs alongside single cells.
    """
    from repro.obs.registry import default_registry

    registry = default_registry()
    if not registry.enabled:
        return
    messages = registry.counter(
        "osu_network_messages_total",
        "Multi-cell messages by disposition", ("kind",))
    messages.labels("routed").inc(stats.messages_routed)
    messages.labels("delivered_local").inc(
        stats.messages_delivered_local)
    messages.labels("forwarded").inc(stats.messages_forwarded)
    messages.labels("buffered_for_registration").inc(
        stats.messages_buffered_for_registration)
    handoffs = registry.counter(
        "osu_network_handoffs_total",
        "Subscriber handoffs between cells", ("kind",))
    handoffs.labels("requested").inc(stats.handoffs_requested)
    handoffs.labels("completed").inc(stats.handoffs_completed)
    registry.counter(
        "osu_network_backbone_bytes_total",
        "Bytes carried by the wired backbone").inc(backbone_bytes)
    registry.histogram(
        "osu_network_end_to_end_delay_seconds",
        "Cross-cell end-to-end message delay",
        buckets=DELAY_BUCKETS).labels().merge(delays)


@dataclass
class NetworkRun:
    config: MultiCellConfig
    network: MultiCellNetwork
    stats: NetworkStats


def build_network(config: MultiCellConfig) -> MultiCellNetwork:
    return MultiCellNetwork(config.city())


def run_network(config: MultiCellConfig) -> NetworkRun:
    network = build_network(config)
    stats = network.run()
    return NetworkRun(config=config, network=network, stats=stats)

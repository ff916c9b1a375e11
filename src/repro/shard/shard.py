"""One shard: a group of cells on its own simulator, advanced by epochs.

A :class:`ShardSim` owns the cells of one shard group.  Within an epoch
it is a self-contained multi-cell network (uplink reassembly, a local
wired backbone between its own base stations, buffering for
mid-registration destinations -- the same model as
:class:`repro.network.multicell.MultiCellNetwork`).  Anything that must
leave the shard -- a message for a cell another shard owns, a subscriber
whose mobility route crosses the shard boundary -- is *captured* as an
envelope and held until the epoch barrier, where the coordinator
redistributes it (:mod:`repro.shard.coordinator`).

Determinism contract
--------------------
Every random draw comes from a stream whose name is a pure function of
(config, subscriber EIN, hop count), never of shard topology or
wall-clock scheduling.  The epoch report -- census, counters, per-cell
summaries, outbound envelopes, all canonically ordered -- is digested,
so the same (config, seed) yields bit-identical digests whether the
shards share one process or are spread over worker processes
(:mod:`repro.shard.worker`), and when a respawned worker replays its
shards' history.

The mobility schedule is shared: every shard schedules *all* of the
city's transition events and acts only on subscribers it currently
hosts.  A subscriber in flight between shards (departed but not yet
materialized at the barrier) simply misses events that fire mid-flight;
the walk resynchronizes at its next executed event.  Message traffic
for an EIN follows the directory, which is updated immediately for
local knowledge and via broadcast handoff envelopes at barriers for
remote knowledge; deliveries re-resolve the directory on arrival and
re-emit (with a bounded hop count) when the destination moved again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.cell import CellRun, _make_error_model, build_cell
from repro.core.gps_unit import GpsSubscriber
from repro.core.packets import PAYLOAD_BYTES, DataPacket, ForwardPacket
from repro.core.subscriber import DataSubscriber
from repro.network.backbone import Backbone
from repro.phy import timing
from repro.phy.channel import Link
from repro.shard.config import EIN_CELL_STRIDE, CityConfig
from repro.shard.envelopes import (
    HANDOFF,
    canonical_order,
    handoff_envelope,
    message_envelope,
)
from repro.shard.mobility import MobilityEvent, build_schedule
from repro.sim import RandomStreams, Simulator
from repro.traffic.messages import (
    Message,
    PoissonMessageSource,
    interarrival_for_load,
    make_size_distribution,
)

#: A message that keeps chasing a mover across shards is dropped after
#: this many barrier re-emissions (it would otherwise ping-pong forever
#: between two shards that each learn of the next move one epoch late).
MAX_MESSAGE_HOPS = 8

#: City-unique deterministic message ids: ``ein * 2**20 + counter``.
#: :class:`PoissonMessageSource` numbers messages from a process-global
#: counter, which depends on how many sources share the process -- i.e.
#: on shard topology -- so the shard overwrites every id with this
#: per-subscriber scheme before the message enters the MAC.
_MSG_ID_STRIDE = 1 << 20


@dataclass
class _PartialMessage:
    bytes_received: int = 0
    created_at: float = 0.0
    destination_ein: Optional[int] = None


class ShardSim:
    """The cells of one shard group, advanced one epoch at a time."""

    def __init__(self, city: CityConfig, shard_id: int):
        self.city = city
        self.shard_id = shard_id
        self.sim = Simulator()
        self.cell_ids = city.cells_of_shard(shard_id)
        self._cell_set = frozenset(self.cell_ids)
        self.backbone = Backbone(self.sim, city.backbone_latency,
                                 city.backbone_bandwidth)
        #: City-wide view: ein -> cell currently hosting it.  Exact for
        #: local subscribers; for remote ones it lags by at most one
        #: epoch (updated from broadcast handoff envelopes).
        self.directory: Dict[int, int] = {
            ein: city.home_cell_of_ein(ein) for ein in city.all_eins()}
        self.runs: Dict[int, CellRun] = {}
        self._local: Dict[int, Any] = {}  # ein -> live subscriber
        self._sources: Dict[int, PoissonMessageSource] = {}
        self._msg_counter: Dict[int, int] = {}
        self._hop: Dict[int, int] = {}  # ein -> moves so far
        self._partial: Dict[Any, _PartialMessage] = {}
        self._waiting: Dict[int, List[Message]] = {}
        self._outbound: List[Dict[str, Any]] = []
        self._forward_seq = 0
        self._ein_streams_cache: Dict[int, RandomStreams] = {}
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

        self._cell_cfg = city.cell_config()
        self._root_streams = RandomStreams(city.seed)
        self._data_eins = city.all_data_eins()
        self._sizes = None
        self._interarrival = None
        if city.load_index > 0 and self._cell_cfg.num_data_users:
            cfg = self._cell_cfg
            self._sizes = make_size_distribution(
                cfg.message_size, cfg.fixed_message_bytes,
                cfg.uniform_low, cfg.uniform_high)
            self._interarrival = interarrival_for_load(
                city.load_index, cfg.num_data_users,
                self._sizes.mean_mac_bytes(PAYLOAD_BYTES),
                timing.CYCLE_LENGTH, cfg.data_slots_per_cycle,
                PAYLOAD_BYTES)

        for cell_id in self.cell_ids:
            run = build_cell(
                self._cell_cfg, sim=self.sim,
                streams=self._root_streams.spawn(f"cell-{cell_id}"),
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

        for event in build_schedule(city):
            self.sim.call_at(
                event.time,
                lambda ev=event: self._on_mobility(ev))

    def _adopt(self, subscriber: Any) -> None:
        self._local[subscriber.ein] = subscriber
        self._hop.setdefault(subscriber.ein, 0)
        if isinstance(subscriber, DataSubscriber):
            subscriber.on_message_received = self._make_receiver(
                subscriber.ein)

    def _ein_streams(self, ein: int) -> RandomStreams:
        streams = self._ein_streams_cache.get(ein)
        if streams is None:
            streams = self._root_streams.spawn(f"ein-{ein}")
            self._ein_streams_cache[ein] = streams
        return streams

    # -- workload -----------------------------------------------------------

    def _start_source(self, subscriber: DataSubscriber, hop: int,
                      start_at: float) -> None:
        if self._interarrival is None:
            return
        ein = subscriber.ein
        # Interarrival, sizes and addressing all draw from one per-hop
        # stream, in a fixed per-message order, so the workload of a
        # subscriber is a pure function of (seed, ein, hop) -- identical
        # whichever shard hosts it.
        rng = self._ein_streams(ein)[f"traffic-hop{hop}"]

        def deliver(message: Message,
                    sub: DataSubscriber = subscriber) -> None:
            counter = self._msg_counter.get(ein, 0)
            self._msg_counter[ein] = counter + 1
            message.message_id = ein * _MSG_ID_STRIDE + counter
            if rng.random() < self.city.inter_cell_fraction:
                candidates = [e for e in self._data_eins if e != ein]
                if candidates:
                    message.destination_ein = rng.choice(candidates)
            sub.submit_message(message)

        self._sources[ein] = PoissonMessageSource(
            self.sim, rng, self._interarrival, self._sizes,
            deliver=deliver, start_at=start_at)

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

    def _route(self, src_cell: int, message: Message) -> None:
        dest_cell = self.directory.get(message.destination_ein)
        if dest_cell is None:
            return
        if dest_cell == src_cell:
            self.counters["messages_delivered_local"] += 1
            self._deliver_down(dest_cell, message)
        elif dest_cell in self._cell_set:
            self.counters["messages_forwarded"] += 1
            self.backbone.send(
                src_cell, dest_cell, message, message.size_bytes,
                lambda msg, src=src_cell: self._backbone_arrival(
                    src, msg))
        else:
            self.counters["messages_forwarded"] += 1
            self._emit_message(message, dest_cell, src_cell)

    def _backbone_arrival(self, src_cell: int,
                          message: Message) -> None:
        # The destination may have moved while the message was on the
        # local wire; re-resolve (and hand off to another shard if it
        # left entirely).
        dest_cell = self.directory.get(message.destination_ein)
        if dest_cell is None:
            return
        if dest_cell in self._cell_set:
            self._deliver_down(dest_cell, message)
        else:
            self._emit_message(message, dest_cell, src_cell)

    def _emit_message(self, message: Message, dest_cell: int,
                      src_cell: int, hops: int = 0) -> None:
        if hops > MAX_MESSAGE_HOPS:
            self.counters["messages_hop_dropped"] += 1
            return
        self.counters["messages_cross_shard"] += 1
        dst_shard = str(self.city.shard_of_cell(dest_cell))
        xbytes = self.counters["cross_shard_bytes"]
        xbytes[dst_shard] = (xbytes.get(dst_shard, 0)
                             + message.size_bytes)
        self._outbound.append(message_envelope(
            dest_ein=message.destination_ein, dest_cell=dest_cell,
            message_id=message.message_id,
            size_bytes=message.size_bytes,
            created_at=message.created_at, src_cell=src_cell,
            sent_at=self.sim.now, hops=hops))

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

    def _make_receiver(self, ein: int) -> Callable:
        def on_received(packet: DataPacket) -> None:
            self.counters["messages_received"] += 1
            self.counters["end_to_end_delay_total"] += (
                self.sim.now - packet.created_at)
        return on_received

    # -- mobility -----------------------------------------------------------

    def _on_mobility(self, event: MobilityEvent) -> None:
        subscriber = self._local.get(event.ein)
        if subscriber is None:
            return  # hosted elsewhere (or in flight between shards)
        from_cell = self.directory[event.ein]
        to_cell = event.to_cell
        if to_cell == from_cell:
            return  # missed hops resynchronized the walk here already
        bs = self.runs[from_cell].base_station
        if subscriber.uid is not None:
            bs.sign_off(subscriber.uid)
        hop = self._hop[event.ein] + 1
        self._hop[event.ein] = hop
        kind = ("gps" if isinstance(subscriber, GpsSubscriber)
                else "data")
        self._count_handoff(to_cell, kind)
        if to_cell in self._cell_set:
            self._relocate_local(subscriber, to_cell, hop)
        else:
            self._capture_departure(subscriber, from_cell, to_cell,
                                    hop)

    def _count_handoff(self, to_cell: int, kind: str) -> None:
        by_cell = self.counters["handoffs_by_cell"]
        key = f"{to_cell}/{kind}"
        by_cell[key] = by_cell.get(key, 0) + 1

    def _hop_link(self, ein: int, hop: int, direction: str) -> Link:
        stream = self._ein_streams(ein)[f"link-{hop}-{direction}"]
        return Link(_make_error_model(self._cell_cfg, stream), stream,
                    full_fidelity=self._cell_cfg.full_fidelity)

    def _relocate_local(self, subscriber: Any, to_cell: int,
                        hop: int) -> None:
        target = self.runs[to_cell]
        subscriber.relocate(
            target.base_station.forward, target.base_station.reverse,
            forward_link=self._hop_link(subscriber.ein, hop, "fwd"),
            reverse_link=self._hop_link(subscriber.ein, hop, "rev"))
        self.directory[subscriber.ein] = to_cell
        self.counters["handoffs_local"] += 1

    def _capture_departure(self, subscriber: Any, from_cell: int,
                           to_cell: int, hop: int) -> None:
        ein = subscriber.ein
        state = subscriber.transfer_state()
        if state.get("kind") == "data":
            state["msg_counter"] = self._msg_counter.get(ein, 0)
            source = self._sources.pop(ein, None)
            if source is not None:
                source.stop_at = self.sim.now
        subscriber.depart()
        del self._local[ein]
        self.directory[ein] = to_cell
        self.counters["handoffs_out"] += 1
        self._outbound.append(handoff_envelope(
            ein=ein, from_cell=from_cell, to_cell=to_cell,
            depart_time=self.sim.now, hop=hop, state=state))
        # Messages buffered for the departed subscriber chase it to the
        # destination shard.
        waiting = self._waiting.pop(ein, None)
        if waiting:
            for message in waiting:
                self._emit_message(message, to_cell, from_cell)

    # -- epoch barrier ------------------------------------------------------

    def apply_inbound(self, epoch: int,
                      envelopes: List[Dict[str, Any]]) -> None:
        """Apply the coordinator's merged envelopes before ``epoch``."""
        t0 = epoch * self.city.epoch_duration
        for env in canonical_order(envelopes):
            if env["type"] == HANDOFF:
                self.directory[env["ein"]] = env["to_cell"]
                self._hop[env["ein"]] = env["hop"]
                if env["to_cell"] in self._cell_set:
                    self._materialize(env, t0)
            else:
                arrive_at = t0 + self.city.backbone_latency
                message = Message(
                    message_id=env["message_id"],
                    size_bytes=env["size_bytes"],
                    created_at=env["created_at"],
                    destination_ein=env["dest_ein"])
                self.sim.call_at(
                    arrive_at,
                    lambda m=message, src=env["src_cell"],
                    hops=env["hops"]: self._inbound_arrival(
                        m, src, hops))

    def _materialize(self, env: Dict[str, Any], t0: float) -> None:
        ein = env["ein"]
        to_cell = env["to_cell"]
        hop = env["hop"]
        state = env["state"]
        run = self.runs[to_cell]
        bs = run.base_station
        streams = self._ein_streams(ein)
        cls = GpsSubscriber if state.get("kind") == "gps" \
            else DataSubscriber
        subscriber = cls(
            self.sim, self._cell_cfg, ein, bs.forward, bs.reverse,
            forward_link=self._hop_link(ein, hop, "fwd"),
            reverse_link=self._hop_link(ein, hop, "rev"),
            stats=run.stats, rng=streams[f"sub-hop{hop}"],
            entry_time=t0, name=f"c{to_cell}-h{hop}-ein{ein:x}")
        subscriber.restore_transfer_state(state)
        self.counters["handoffs_in"] += 1
        if isinstance(subscriber, GpsSubscriber):
            run.gps_units.append(subscriber)
        else:
            run.data_users.append(subscriber)
            self._msg_counter[ein] = int(state.get("msg_counter", 0))
        self._adopt(subscriber)
        self._hop[ein] = hop
        if isinstance(subscriber, DataSubscriber):
            self._start_source(subscriber, hop=hop, start_at=t0)

    def _inbound_arrival(self, message: Message, src_cell: int,
                         hops: int) -> None:
        dest_cell = self.directory.get(message.destination_ein)
        if dest_cell is None:
            return
        if dest_cell in self._cell_set:
            self._deliver_down(dest_cell, message)
        else:
            # Moved again while the envelope crossed the barrier.
            self._emit_message(message, dest_cell, src_cell, hops + 1)

    def run_epoch(self, epoch: int) -> Dict[str, Any]:
        """Advance to the end of ``epoch`` and report canonically."""
        self.sim.run(until=(epoch + 1) * self.city.epoch_duration)
        outbound = canonical_order(self._outbound)
        self._outbound = []
        counters = json.loads(json.dumps(self.counters))
        counters["radio_violations"] = sum(
            len(sub.radio.violations)
            for run in self.runs.values()
            for sub in run.data_users + run.gps_units)
        counters["backbone_bytes_local"] = self.backbone.total_bytes
        cells = {str(cell_id): self.runs[cell_id].stats.summary()
                 for cell_id in self.cell_ids}
        report = {
            "shard": self.shard_id,
            "epoch": epoch,
            "census": sorted(self._local),
            "counters": counters,
            "cells": cells,
            "outbound": outbound,
        }
        report["digest"] = report_digest(report)
        return report


def report_digest(report: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a report (minus the digest)."""
    payload = {key: value for key, value in report.items()
               if key != "digest"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

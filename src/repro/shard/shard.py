"""One shard: a group of cells on its own simulator, advanced by epochs.

A shard is a :class:`~repro.network.multicell.MultiCellNetwork` over
the cells of one shard group: within an epoch it runs the engine's
uplink reassembly, local wired backbone, directory, paging-backed
buffering and handoffs.  :class:`ShardSim` adds only the cross-shard
layer.  Anything that must leave the shard -- a message for a cell
another shard owns, a subscriber whose mobility route crosses the shard
boundary -- is *captured* as an envelope and held until the epoch
barrier, where the coordinator redistributes it
(:mod:`repro.shard.coordinator`).

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
from typing import Any, Dict, List

from repro.core.gps_unit import GpsSubscriber
from repro.core.subscriber import DataSubscriber
from repro.network.multicell import MultiCellNetwork
from repro.shard.config import CityConfig
from repro.shard.envelopes import (
    HANDOFF,
    canonical_order,
    handoff_envelope,
    message_envelope,
)
from repro.shard.mobility import MobilityEvent, build_schedule
from repro.traffic.messages import Message

#: A message that keeps chasing a mover across shards is dropped after
#: this many barrier re-emissions (it would otherwise ping-pong forever
#: between two shards that each learn of the next move one epoch late).
MAX_MESSAGE_HOPS = 8


class ShardSim(MultiCellNetwork):
    """The cells of one shard group, advanced one epoch at a time."""

    def __init__(self, city: CityConfig, shard_id: int):
        super().__init__(city, shard_id)
        self._outbound: List[Dict[str, Any]] = []
        for event in build_schedule(city):
            self.sim.call_at(
                event.time,
                lambda ev=event: self._on_mobility(ev))

    def _on_mobility(self, event: MobilityEvent) -> None:
        # Only hosted subscribers move here.  One that missed hops in
        # flight may already be in ``to_cell``: ``handoff`` does nothing.
        if event.ein in self._local:
            self.handoff(event.ein, event.to_cell)

    # -- leaving the shard --------------------------------------------------

    def _emit_message(self, message: Message, dest_cell: int,
                      source_cell: int, hops: int = 0) -> None:
        if hops > MAX_MESSAGE_HOPS:
            self.counters["messages_hop_dropped"] += 1
            return
        self.counters["messages_cross_shard"] += 1
        dst_shard = str(self.config.shard_of_cell(dest_cell))
        xbytes = self.counters["cross_shard_bytes"]
        xbytes[dst_shard] = (xbytes.get(dst_shard, 0)
                             + message.size_bytes)
        self._outbound.append(message_envelope(
            dest_ein=message.destination_ein, dest_cell=dest_cell,
            message_id=message.message_id,
            size_bytes=message.size_bytes,
            created_at=message.created_at, src_cell=source_cell,
            sent_at=self.sim.now, hops=hops))

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
        t0 = epoch * self.config.epoch_duration
        for env in canonical_order(envelopes):
            if env["type"] == HANDOFF:
                self.directory[env["ein"]] = env["to_cell"]
                self._hop[env["ein"]] = env["hop"]
                if env["to_cell"] in self._cell_set:
                    self._materialize(env, t0)
            else:
                arrive_at = t0 + self.config.backbone_latency
                message = Message(
                    message_id=env["message_id"],
                    size_bytes=env["size_bytes"],
                    created_at=env["created_at"],
                    destination_ein=env["dest_ein"])
                # Re-resolved on arrival: the destination may have
                # moved again while the envelope crossed the barrier.
                self.sim.call_at(
                    arrive_at,
                    lambda m=message, src=env["src_cell"],
                    hops=env["hops"] + 1: self._backbone_arrival(
                        src, m, hops))

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
        self._adopt(subscriber)
        if isinstance(subscriber, DataSubscriber):
            run.data_users.append(subscriber)
            self._msg_counter[ein] = int(state.get("msg_counter", 0))
            self._start_source(subscriber, hop=hop, start_at=t0)
        else:
            run.gps_units.append(subscriber)

    def run_epoch(self, epoch: int) -> Dict[str, Any]:
        """Advance to the end of ``epoch`` and report canonically."""
        self.sim.run(until=(epoch + 1) * self.config.epoch_duration)
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

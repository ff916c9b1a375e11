"""MCNS / DOCSIS-style cable-modem MAC (the survey's 7th protocol).

The paper devotes a passage to the MCNS Partners' DOCSIS RF interface
and notes the parallels with OSU-MAC: "as we use user ID to identify
mobile subscribers in a cell, MCNS uses the Service ID ... cable modems
in MCNS request bandwidth for data transmission and the cable modem
termination system (CMTS) broadcasts to every cable modem the slot
allocation schedule."

This model captures the DOCSIS upstream bandwidth-allocation loop at MAP
granularity:

* Upstream time is divided into **minislots**; each MAP interval the
  CMTS broadcasts a MAP describing which minislots are *request
  contention* regions and which are *data grants* (per Service ID).
* Modems send bandwidth requests in contention minislots (binary
  exponential backoff on collision, per DOCSIS) or **piggyback** the
  next request on a granted data transmission -- the same
  explicit/implicit duality OSU-MAC uses.
* The CMTS grants data minislots from the request queue (FCFS here).

The shared DNA with OSU-MAC (central scheduler, broadcast schedule,
request/piggyback reservations, contention-region sizing) is why the
paper calls the designs similar; the differences are the lack of
real-time slot guarantees and of the half-duplex constraint.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

from repro.sim.rng import RandomStreams
from repro.protocols.base import ProtocolStats, resolve_contention


@dataclass
class _Request:
    sid: int
    minislots: int


class CableModem:
    """One modem: a packet queue plus DOCSIS request/backoff state."""

    def __init__(self, sid: int, arrival_probability: float,
                 packet_minislots: int):
        self.sid = sid
        self.arrival_probability = arrival_probability
        self.packet_minislots = packet_minislots
        self.queue: Deque[int] = deque()  # packet creation MAP indices
        self.request_outstanding = False
        self.backoff_window = 1  # binary exponential, in MAP intervals
        self.backoff_remaining = 0

    def maybe_arrive(self, map_index: int, rng: random.Random,
                     stats: ProtocolStats) -> None:
        if rng.random() < self.arrival_probability:
            self.queue.append(map_index)
            stats.data_packets_generated += 1

    def wants_to_request(self) -> bool:
        return bool(self.queue) and not self.request_outstanding

    def on_collision(self, rng: random.Random) -> None:
        self.backoff_window = min(self.backoff_window * 2, 64)
        self.backoff_remaining = rng.randrange(self.backoff_window)

    def on_request_accepted(self) -> None:
        self.request_outstanding = True
        self.backoff_window = 1
        self.backoff_remaining = 0


class MCNS:
    """MAP-interval simulation of the DOCSIS upstream allocation loop."""

    def __init__(self,
                 num_modems: int,
                 arrival_probability: float = 0.05,
                 minislots_per_map: int = 40,
                 request_region: int = 8,
                 packet_minislots: int = 8,
                 piggyback: bool = True,
                 seed: int = 1):
        if num_modems <= 0:
            raise ValueError("need at least one modem")
        if request_region >= minislots_per_map:
            raise ValueError("request region must leave room for data")
        self.rng = RandomStreams(seed).stream("mcns")
        self.minislots_per_map = minislots_per_map
        self.request_region = request_region
        self.packet_minislots = packet_minislots
        self.piggyback = piggyback
        self.modems: List[CableModem] = [
            CableModem(sid, arrival_probability, packet_minislots)
            for sid in range(num_modems)]
        self.grant_queue: Deque[_Request] = deque()
        self.stats = ProtocolStats()
        self.map_index = 0
        self.requests_sent = 0
        self.requests_piggybacked = 0

    # -- one MAP interval ------------------------------------------------------

    def step_map(self) -> None:
        for modem in self.modems:
            modem.maybe_arrive(self.map_index, self.rng, self.stats)
        self._contention_region()
        self._data_region()
        self.map_index += 1

    def _contention_region(self) -> None:
        """Request minislots: slotted contention with DOCSIS backoff."""
        choices: Dict[int, List[CableModem]] = {}
        for modem in self.modems:
            if not modem.wants_to_request():
                continue
            if modem.backoff_remaining > 0:
                modem.backoff_remaining -= 1
                continue
            slot = self.rng.randrange(self.request_region)
            choices.setdefault(slot, []).append(modem)
            self.requests_sent += 1
        for slot in range(self.request_region):
            winner = resolve_contention(choices.get(slot, []),
                                        self.map_index, self.stats)
            if winner is not None:
                winner.on_request_accepted()
                self.grant_queue.append(_Request(
                    sid=winner.sid, minislots=self.packet_minislots))
                continue
            for modem in choices.get(slot, []) or []:
                if len(choices.get(slot, [])) > 1:
                    modem.on_collision(self.rng)

    def _data_region(self) -> None:
        """Grant data minislots FCFS from the request queue."""
        budget = self.minislots_per_map - self.request_region
        while budget >= self.packet_minislots and self.grant_queue:
            request = self.grant_queue.popleft()
            modem = self.modems[request.sid]
            modem.request_outstanding = False
            self.stats.slots_total += self.packet_minislots
            if modem.queue:
                created = modem.queue.popleft()
                self.stats.data_packets_delivered += 1
                self.stats.data_delay_slots.push(
                    (self.map_index - created) * self.minislots_per_map)
                self.stats.slots_carrying_payload += \
                    self.packet_minislots
                if self.piggyback and modem.queue:
                    # Piggyback the next request on this transmission --
                    # no contention needed (DOCSIS extended headers).
                    modem.request_outstanding = True
                    self.grant_queue.append(_Request(
                        sid=modem.sid,
                        minislots=self.packet_minislots))
                    self.requests_piggybacked += 1
            else:
                self.stats.slots_idle += self.packet_minislots
            budget -= self.packet_minislots
        # Unused data budget is idle air time.
        if budget > 0:
            self.stats.slots_total += budget
            self.stats.slots_idle += budget

    def run(self, num_maps: int) -> ProtocolStats:
        for _ in range(num_maps):
            self.step_map()
        return self.stats

    def piggyback_fraction(self) -> float:
        """Share of requests that rode piggyback (vs contention)."""
        total = self.requests_piggybacked + self.requests_sent
        return self.requests_piggybacked / total if total else 0.0

"""Remote-Queueing Multiple Access (RQMA) [Figueira, Pasquale 1998].

Per the paper's survey (Fig. 7): an RQMA frame has three fields --
``b`` backlog slots, ``r`` request slots (with ack subfields), and ``t``
transmission slots.

* A mobile host sends a request (slotted ALOHA) to establish a real-time
  session or to send best-effort packets; the base station acks it.
* A real-time session holder uses its assigned *backlog slot* to tell
  the base station about newly arrived packets *and their deadlines*
  (hosts compute deadlines themselves -- the feature the paper
  criticises).
* The base station schedules the transmission slots by deadline
  (earliest-deadline-first), best-effort packets filling leftovers.
* RQMA's "most desirable feature": a pre-established *real-time
  retransmission session* re-sends time-critical packets that hit a
  channel error, deadline permitting.

The model exposes that feature as ``rt_retransmission`` so its effect on
deadline misses under a lossy channel can be measured (experiment X3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.protocols.base import ProtocolStats, resolve_contention
from repro.sim.rng import RandomStreams


@dataclass
class RTPacket:
    created_slot: int
    deadline_slot: int
    retries: int = 0


class RealTimeSession:
    """A periodic real-time source with per-packet deadlines."""

    def __init__(self, session_id: int, period_frames: int,
                 deadline_frames: int):
        self.session_id = session_id
        self.period_frames = period_frames
        self.deadline_frames = deadline_frames
        self.established = False
        self.backlog: Deque[RTPacket] = deque()
        self._countdown = session_id % period_frames  # staggered phases

    def new_frame(self, frame_start_slot: int, slots_per_frame: int
                  ) -> None:
        if not self.established:
            return
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.period_frames
            deadline = frame_start_slot \
                + self.deadline_frames * slots_per_frame
            self.backlog.append(RTPacket(created_slot=frame_start_slot,
                                         deadline_slot=deadline))


class BestEffortHost:
    """A best-effort source: one pending-queue, request-then-send."""

    def __init__(self, host_id: int, arrival_probability: float):
        self.host_id = host_id
        self.arrival_probability = arrival_probability
        self.pending = 0
        self.granted = 0


@dataclass
class RqmaStats(ProtocolStats):
    rt_packets_delivered: int = 0
    rt_deadline_misses: int = 0
    rt_retransmissions: int = 0

    def rt_miss_rate(self) -> float:
        total = self.rt_packets_delivered + self.rt_deadline_misses
        return self.rt_deadline_misses / total if total else 0.0


class RQMA:
    """Frame-level RQMA with EDF transmission scheduling."""

    def __init__(self,
                 num_rt_sessions: int,
                 num_best_effort: int,
                 backlog_slots: int = 4,
                 request_slots: int = 2,
                 transmission_slots: int = 12,
                 rt_period_frames: int = 2,
                 rt_deadline_frames: int = 2,
                 be_arrival_probability: float = 0.05,
                 slot_error_probability: float = 0.0,
                 rt_retransmission: bool = True,
                 request_persistence: float = 0.5,
                 seed: int = 1):
        self.rng = RandomStreams(seed).stream("rqma")
        self.backlog_slots = backlog_slots
        self.request_slots = request_slots
        self.transmission_slots = transmission_slots
        self.slots_per_frame = (backlog_slots + request_slots
                                + transmission_slots)
        self.slot_error_probability = slot_error_probability
        self.rt_retransmission = rt_retransmission
        self.request_persistence = request_persistence
        self.sessions: List[RealTimeSession] = [
            RealTimeSession(index, rt_period_frames, rt_deadline_frames)
            for index in range(num_rt_sessions)]
        self.hosts: List[BestEffortHost] = [
            BestEffortHost(index, be_arrival_probability)
            for index in range(num_best_effort)]
        self.stats = RqmaStats()
        self.current_slot = 0
        self.frame_index = 0

    # -- per-frame phases -------------------------------------------------

    def _request_phase(self) -> None:
        """Slotted-ALOHA requests: session setup + best-effort asks."""
        requesters: List[object] = [
            session for session in self.sessions
            if not session.established]
        requesters += [host for host in self.hosts
                       if host.pending > host.granted]
        choices = {}
        for requester in requesters:
            if self.rng.random() < self.request_persistence:
                choices.setdefault(
                    self.rng.randrange(self.request_slots),
                    []).append(requester)
        for slot in range(self.request_slots):
            winner = resolve_contention(choices.get(slot, []),
                                        self.current_slot, self.stats)
            self.current_slot += 1
            if winner is None:
                continue
            if isinstance(winner, RealTimeSession):
                winner.established = True
            else:
                winner.granted = winner.pending

    def _backlog_phase(self) -> None:
        """Established sessions report arrivals+deadlines (contention-free).

        Backlog slots are assigned by the base station, so they never
        collide; they are control overhead (no payload)."""
        for _ in range(self.backlog_slots):
            self.stats.slots_total += 1
            self.stats.slots_idle += 1
            self.current_slot += 1

    def _drop_expired(self) -> None:
        for session in self.sessions:
            while session.backlog and (session.backlog[0].deadline_slot
                                       < self.current_slot):
                session.backlog.popleft()
                self.stats.rt_deadline_misses += 1

    def _transmission_phase(self) -> None:
        for _ in range(self.transmission_slots):
            self._drop_expired()
            self.stats.slots_total += 1
            packet_owner = self._pick_edf()
            if packet_owner is not None:
                session, packet = packet_owner
                errored = self.rng.random() < self.slot_error_probability
                if not errored:
                    session.backlog.popleft()
                    self.stats.rt_packets_delivered += 1
                    self.stats.slots_carrying_payload += 1
                elif self.rt_retransmission:
                    # Stays queued: the retransmission session re-sends
                    # it in a later slot, deadline permitting.
                    packet.retries += 1
                    self.stats.rt_retransmissions += 1
                    self.stats.slots_idle += 1
                else:
                    # No retransmission session: the errored packet is
                    # gone and will count as a miss.
                    session.backlog.popleft()
                    self.stats.rt_deadline_misses += 1
                    self.stats.slots_idle += 1
            else:
                host = self._pick_best_effort()
                if host is not None:
                    errored = (self.rng.random()
                               < self.slot_error_probability)
                    host.granted -= 1
                    host.pending -= 1
                    if not errored:
                        self.stats.data_packets_delivered += 1
                        self.stats.slots_carrying_payload += 1
                    else:
                        self.stats.slots_idle += 1
                else:
                    self.stats.slots_idle += 1
            self.current_slot += 1

    def _pick_edf(self) -> Optional["tuple[RealTimeSession, RTPacket]"]:
        best = None
        for session in self.sessions:
            if not session.backlog:
                continue
            packet = session.backlog[0]
            if best is None or packet.deadline_slot \
                    < best[1].deadline_slot:
                best = (session, packet)
        return best

    def _pick_best_effort(self) -> Optional[BestEffortHost]:
        candidates = [host for host in self.hosts if host.granted > 0]
        return candidates[0] if candidates else None

    def step_frame(self) -> None:
        frame_start = self.current_slot
        for session in self.sessions:
            session.new_frame(frame_start, self.slots_per_frame)
        for host in self.hosts:
            if self.rng.random() < host.arrival_probability:
                host.pending += 1
                self.stats.data_packets_generated += 1
        self._request_phase()
        self._backlog_phase()
        self._transmission_phase()
        self.frame_index += 1

    def run(self, num_frames: int) -> RqmaStats:
        for _ in range(num_frames):
            self.step_frame()
        return self.stats

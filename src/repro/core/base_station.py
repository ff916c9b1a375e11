"""The base station: resource arbitration, scheduling, registration.

OSU-MAC is base-station-centric (Section 3.1): the base station owns the
slot schedules on both channels, handles registration, acknowledges
uplink packets, and pages inactive subscribers.  Its per-cycle work:

1. At cycle start ``t0``: finalize the previous reverse cycle's
   contention observations, adapt the contention-slot count, build the
   reverse and forward schedules for this cycle, and broadcast the first
   control-field set (preamble + CF1, ending at ``t0 + 0.28125``).
2. Transmit forward data slot 0 (the slot between the two CF sets).
3. At ``t0 + 0.421875``: build the second control-field set -- identical
   to CF1 except that it acknowledges the previous cycle's *last* reverse
   data slot (which overlapped CF1) and may upgrade forward slots that
   CF1 announced idle to the CF2 listener -- and broadcast it.
4. Transmit the remaining forward data slots.
5. Throughout, receive reverse-channel transmissions (GPS reports, data,
   reservations, registrations) and keep demand/ACK bookkeeping.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from typing import Callable, Container, Deque, Dict, List, Optional, Set

from repro.core.config import CellConfig
from repro.core.fields import AckEntry, ControlFields
from repro.core.frames import (
    DownlinkFrame,
    KIND_DATA,
    KIND_REGISTRATION,
    KIND_RESERVATION,
    SLOT_DATA,
    UplinkFrame,
)
from repro.core.gps_slots import GpsSlotManager
from repro.core.packets import (
    DataPacket,
    ForwardPacket,
    RegistrationPacket,
    ReservationPacket,
    SERVICE_GPS,
)
from repro.core.registration import RegistrationModule
from repro.core.scheduler import (
    ContentionController,
    ForwardScheduler,
    Interval,
    RoundRobinScheduler,
)
from repro.metrics import CellStats
from repro.phy import timing
from repro.phy.channel import (
    ForwardChannel,
    ReverseChannel,
    Transmission,
)
from repro.phy.rs import RS_64_48
from repro.sim.core import Simulator


class SlotResult:
    """What the base station observed in one reverse data slot.

    A plain ``__slots__`` class: one is created per occupied reverse
    slot, every cycle, making construction cost part of the per-packet
    hot path.
    """

    __slots__ = ("attempts", "collided", "received", "ack")

    def __init__(self, attempts: int = 0, collided: bool = False,
                 received: bool = False,
                 ack: Optional[AckEntry] = None):
        self.attempts = attempts
        self.collided = collided
        self.received = received
        self.ack = ack

    def __repr__(self) -> str:
        return (f"SlotResult(attempts={self.attempts}, "
                f"collided={self.collided}, received={self.received}, "
                f"ack={self.ack!r})")


class CycleRecord:
    """The schedule the base station committed for one cycle.

    ``slot_results`` holds what was observed in each reverse data slot
    of the cycle, indexed by slot (None until a frame arrives there).
    """

    __slots__ = ("cycle", "start", "layout", "gps_assignment",
                 "data_assignment", "contention_slots",
                 "forward_assignment", "cf2_listener", "grants",
                 "slot_results")

    def __init__(self, cycle: int, start: float,
                 layout: timing.ReverseLayout,
                 gps_assignment: List[Optional[int]],
                 data_assignment: List[Optional[int]],
                 contention_slots: List[int],
                 forward_assignment: List[Optional[int]],
                 cf2_listener: Optional[int],
                 grants: Optional[Dict[int, int]] = None):
        self.cycle = cycle
        self.start = start
        self.layout = layout
        self.gps_assignment = gps_assignment
        self.data_assignment = data_assignment
        self.contention_slots = contention_slots
        self.forward_assignment = forward_assignment
        self.cf2_listener = cf2_listener
        self.grants = {} if grants is None else grants
        self.slot_results: List[Optional[SlotResult]] = \
            [None] * layout.data_slots

    @property
    def last_data_slot(self) -> int:
        return self.layout.data_slots - 1

    @property
    def last_slot_user(self) -> Optional[int]:
        return self.data_assignment[self.last_data_slot]


class BaseStation:
    """Central controller of one cell."""

    def __init__(self, sim: Simulator, config: CellConfig,
                 forward: ForwardChannel, reverse: ReverseChannel,
                 stats: CellStats, rng: random.Random):
        self.sim = sim
        self.config = config
        self.forward = forward
        self.reverse = reverse
        self.stats = stats
        self.rng = rng

        self.registration = RegistrationModule(
            max_gps_users=timing.MAX_GPS_USERS,
            uid_allocation=config.uid_allocation)
        self.gps_mgr = GpsSlotManager(
            dynamic=config.dynamic_slot_adjustment)
        self.reverse_scheduler = RoundRobinScheduler()
        self.forward_scheduler = ForwardScheduler()
        self.contention = ContentionController(
            min_slots=config.min_contention_slots,
            max_slots=config.max_contention_slots)

        #: uid -> outstanding reverse slot demand.
        self.demands: Dict[int, int] = {}
        #: uid -> queued downlink packets.
        self.forward_queues: Dict[int, Deque[ForwardPacket]] = {}
        #: Pending paging announcements (uids), drained into each CF.
        self.paging_queue: Deque[int] = deque()

        self.cycle = 0
        self._records: Dict[int, CycleRecord] = {}
        #: Recently delivered (uid, seq) pairs, for duplicate suppression.
        self._recent_seqs: Dict[int, Set[int]] = {}
        #: Liveness leases: uid -> cycle the base station last heard an
        #: uplink from it (any kind).  A registrant silent for
        #: ``config.liveness_lease_cycles`` cycles is deregistered.
        self._last_heard: Dict[int, int] = {}

        self.codec = RS_64_48

        #: Network-layer hooks (multi-cell forwarding, Section 2.2):
        #: called with every successfully received uplink data packet,
        #: and with every newly approved registration record.
        self.on_data_packet: Optional[Callable] = None
        self.on_registration: Optional[Callable] = None

        reverse.add_listener(self._on_reverse_delivery)
        sim.call_at(sim.now, self._start_cycle)

    # -- public control-plane helpers (simulation shortcuts) ----------------

    def page(self, uid: int) -> None:
        """Queue a paging announcement for ``uid`` (Section 3.1)."""
        self.paging_queue.append(uid)

    def sign_off(self, uid: int) -> None:
        """Remove a subscriber (control-plane shortcut for churn tests)."""
        self._deregister(uid)

    def _deregister(self, uid: int) -> None:
        """Drop every piece of per-subscriber state the station holds.

        The UID returns to the pool and, for GPS users, the slot is
        reclaimed through the paper's R1-R3 reassignment rules (the next
        cycle's layout re-runs dynamic slot adjustment automatically).
        """
        record = self.registration.lookup_uid(uid)
        if record is None:
            return
        if record.service == SERVICE_GPS:
            self.gps_mgr.leave(uid, cycle=self.cycle)
        self.registration.release(uid)
        self.demands.pop(uid, None)
        self.forward_queues.pop(uid, None)
        self._recent_seqs.pop(uid, None)
        self._last_heard.pop(uid, None)

    def _sweep_leases(self) -> None:
        """Deregister every registrant whose liveness lease expired."""
        lease = self.config.liveness_lease_cycles
        expired = [uid for uid, last in self._last_heard.items()
                   if self.cycle - last >= lease]
        for uid in expired:
            self._deregister(uid)
            self.stats.lease_evictions += 1

    def _touch(self, uid: Optional[int]) -> None:
        """Refresh ``uid``'s liveness lease (it was just heard from)."""
        if uid is not None \
                and self.registration.lookup_uid(uid) is not None:
            self._last_heard[uid] = self.cycle

    def submit_forward(self, uid: int, packet: ForwardPacket) -> None:
        """Queue a downlink packet for ``uid``."""
        self.forward_queues.setdefault(uid, deque()).append(packet)

    # -- main cycle loop -------------------------------------------------------

    def _start_cycle(self) -> None:
        """Steps 1-2: build the cycle, send CF1 and forward slot 0."""
        t0 = self.sim.now
        record = self._build_cycle(t0)
        self._records[self.cycle] = record
        cf1 = self._make_cf(record, which=1)
        self._broadcast_cf(cf1, start=t0,
                           duration=timing.CF1_END)
        self._schedule_forward_slot(record, 0)
        self.sim.call_at(t0 + timing.CF2_OFFSET,
                         partial(self._send_cf2, record))

    def _send_cf2(self, record: CycleRecord) -> None:
        """Steps 3-4: send CF2 and the remaining forward slots."""
        now = self.sim.now
        if self.config.use_second_cf:
            self._upgrade_forward_slots(record)
            cf2 = self._make_cf(record, which=2)
            self._broadcast_cf(cf2, start=now,
                               duration=timing.CONTROL_FIELD_TIME)
        assignment = record.forward_assignment
        for slot_index in range(1, timing.NUM_FORWARD_DATA_SLOTS):
            if assignment[slot_index] is not None:
                self._schedule_forward_slot(record, slot_index)
        self.sim.call_at(now + (timing.CYCLE_LENGTH - timing.CF2_OFFSET),
                         self._end_cycle)

    def _end_cycle(self) -> None:
        """Close the cycle and start the next one."""
        self.cycle += 1
        self._prune(self.cycle - 4)
        self._start_cycle()

    # -- schedule construction -------------------------------------------------

    def _build_cycle(self, t0: float) -> CycleRecord:
        previous = self._records.get(self.cycle - 1)
        self._finalize_contention(previous)
        if self.config.liveness_lease_cycles:
            self._sweep_leases()

        layout = self.gps_mgr.layout()
        gps_assignment = self.gps_mgr.schedule()

        contention_count = min(self.contention.current,
                               layout.data_slots - 1)
        reserved_contention = list(range(contention_count))
        free_slots = layout.data_slots - contention_count
        grants = self.reverse_scheduler.allocate(self.demands, free_slots)
        for uid, count in grants.items():
            self.demands[uid] = max(0, self.demands.get(uid, 0) - count)
        data_assignment = self.reverse_scheduler.layout_slots(
            grants, layout.data_slots, reserved_contention)
        # Every unassigned slot except the last acts as a contention slot
        # (Section 3.1: "a contention slot is simply a data slot not
        # assigned to any mobile subscriber"); the base station guarantees
        # at least `contention_count` of them at the front of the cycle.
        contention_slots = [index for index
                            in range(layout.data_slots - 1)
                            if data_assignment[index] is None]

        # Who listens to CF2 this cycle: the subscriber that was assigned
        # the previous cycle's last reverse data slot (it is transmitting
        # while CF1 is on the air).
        cf2_listener = previous.last_slot_user if previous else None

        if not self.config.use_second_cf:
            # Ablation: no CF2 exists, so the last reverse data slot (which
            # overlaps the next cycle's CF1) can never be assigned.
            last = layout.data_slots - 1
            evicted = data_assignment[last]
            if evicted is not None:
                data_assignment[last] = None
                self.demands[evicted] = self.demands.get(evicted, 0) + 1
                grants[evicted] -= 1
            cf2_listener = None

        forward_demands = {uid: len(queue)
                           for uid, queue in self.forward_queues.items()
                           if queue}
        reverse_tx = self._reverse_tx_intervals(
            t0, layout, gps_assignment, data_assignment, forward_demands)
        forward_assignment = self.forward_scheduler.allocate(
            forward_demands, reverse_tx, cf2_listener, t0)

        if self.stats.in_measurement(t0):
            self.stats.measured_cycles += 1
            self.stats.reverse_data_slots_total += layout.data_slots
            self.stats.reverse_data_slots_assigned += sum(
                1 for uid in data_assignment if uid is not None)
            self.stats.forward_slots_total += timing.NUM_FORWARD_DATA_SLOTS
            self.stats.forward_slots_assigned += sum(
                1 for uid in forward_assignment if uid is not None)

        return CycleRecord(cycle=self.cycle, start=t0, layout=layout,
                           gps_assignment=gps_assignment,
                           data_assignment=data_assignment,
                           contention_slots=contention_slots,
                           forward_assignment=forward_assignment,
                           cf2_listener=cf2_listener,
                           grants=grants)

    @staticmethod
    def _reverse_tx_intervals(t0: float, layout: timing.ReverseLayout,
                              gps_assignment: List[Optional[int]],
                              data_assignment: List[Optional[int]],
                              uids: Container[int],
                              ) -> Dict[int, List[Interval]]:
        """Reverse transmit intervals of the subscribers in ``uids``."""
        intervals: Dict[int, List[Interval]] = {}
        for index, uid in enumerate(gps_assignment):
            if uid in uids:
                start = t0 + layout.gps_offsets[index]
                intervals.setdefault(uid, []).append(
                    Interval(start, start + timing.GPS_SLOT_TIME))
        for index, uid in enumerate(data_assignment):
            if uid in uids:
                start = t0 + layout.data_offsets[index]
                intervals.setdefault(uid, []).append(
                    Interval(start, start + timing.DATA_SLOT_TIME))
        return intervals

    def _finalize_contention(self, previous: Optional[CycleRecord]) -> None:
        """Digest the previous cycle's contention-slot outcomes."""
        if previous is None:
            return
        collided = used = idle = 0
        results = previous.slot_results
        for slot_index in previous.contention_slots:
            result = results[slot_index]
            if result is None or result.attempts == 0:
                idle += 1
            elif result.collided:
                collided += 1
            elif result.received:
                used += 1
            else:
                idle += 1  # energy lost to channel errors, not collision
        self.contention.update(collided, idle)
        if self.stats.in_measurement(self.sim.now):
            self.stats.contention_slots_total += len(
                previous.contention_slots)
            self.stats.contention_slots_used += used
            self.stats.contention_slots_collided += collided
            self.stats.contention_slots_idle += idle
        # Slot-occupancy accounting lags one extra cycle: the *last* data
        # slot of cycle c-1 is still on the air at the start of cycle c,
        # so cycle c-2 is the most recent cycle with final outcomes.
        settled = self._records.get(self.cycle - 2)
        if settled is not None and self.stats.in_measurement(settled.start):
            for uid, result in zip(settled.data_assignment,
                                   settled.slot_results):
                if uid is not None and result is not None \
                        and result.received:
                    self.stats.reverse_data_slots_used += 1

    # -- control fields -----------------------------------------------------------

    def _make_cf(self, record: CycleRecord, which: int) -> ControlFields:
        previous = self._records.get(record.cycle - 1)
        acks = [AckEntry.empty()] * timing.REVERSE_ACK_ENTRIES
        if previous is not None:
            # CF1 leaves the last slot out: its outcome goes into CF2.
            skip = previous.last_data_slot if which == 1 else -1
            for slot_index, result in enumerate(previous.slot_results):
                if result is not None and result.ack is not None \
                        and slot_index != skip:
                    acks[slot_index] = result.ack
        paging: List[Optional[int]] = []
        while self.paging_queue and len(paging) < timing.PAGING_ENTRIES:
            paging.append(self.paging_queue.popleft())
        return ControlFields(
            cycle=record.cycle,
            which=which,
            gps_schedule=list(record.gps_assignment),
            reverse_schedule=list(record.data_assignment),
            forward_schedule=list(record.forward_assignment),
            reverse_acks=acks,
            paging=paging,
            cycle_start=record.start)

    def _broadcast_cf(self, cf: ControlFields, start: float,
                      duration: float) -> None:
        frame = DownlinkFrame(kind=f"cf{cf.which}", cycle=cf.cycle,
                              packet=cf)
        if self.config.full_fidelity:
            codewords = cf.to_codewords()
        else:
            codewords = [b""] * timing.CONTROL_FIELD_CODEWORDS
        self.forward.broadcast(Transmission(
            sender="base-station", payload=frame, start=start,
            duration=duration, kind=f"cf{cf.which}",
            codewords=codewords))

    def _upgrade_forward_slots(self, record: CycleRecord) -> None:
        """CF2 may grant idle forward slots to the CF2 listener.

        Problem 3 (Section 3.4): based on the piggyback request in the
        packet the CF2 listener sent in the previous cycle's last reverse
        slot, the base station can schedule forward slots that CF1
        announced idle -- but only slots that come after CF2 itself.
        """
        uid = record.cf2_listener
        if uid is None:
            return
        queue = self.forward_queues.get(uid)
        if not queue:
            return
        demand = len(queue) - sum(
            1 for assigned in record.forward_assignment if assigned == uid)
        if demand <= 0:
            return
        reverse_tx = self._reverse_tx_intervals(
            record.start, record.layout, record.gps_assignment,
            record.data_assignment, (uid,))
        margin = timing.MS_TURNAROUND_TIME
        offsets = timing.FORWARD_SLOT_OFFSETS
        my_reverse = reverse_tx.get(uid, ())
        for slot_index in range(1, timing.NUM_FORWARD_DATA_SLOTS):
            if demand <= 0:
                break
            if record.forward_assignment[slot_index] is not None:
                continue
            # Same float arithmetic as Interval(...).expanded(margin) so
            # boundary comparisons stay bit-identical.
            slot_start = record.start + offsets[slot_index]
            guard_start = slot_start - margin
            guard_end = (slot_start + timing.FORWARD_SLOT_TIME) + margin
            if any(guard_start < tx.end and tx.start < guard_end
                   for tx in my_reverse):
                continue
            record.forward_assignment[slot_index] = uid
            demand -= 1

    # -- forward data slots ------------------------------------------------------

    def _schedule_forward_slot(self, record: CycleRecord,
                               slot_index: int) -> None:
        uid = record.forward_assignment[slot_index]
        if uid is None:
            return
        when = record.start + timing.FORWARD_SLOT_OFFSETS[slot_index]
        self.sim.call_at(when, partial(self._transmit_forward, record,
                                       slot_index, when))

    def _transmit_forward(self, record: CycleRecord, slot_index: int,
                          when: float) -> None:
        uid = record.forward_assignment[slot_index]
        queue = self.forward_queues.get(uid)
        if not queue:
            return
        packet = queue.popleft()
        if self.stats.in_measurement(when):
            self.stats.forward_packets_sent += 1
        data_packet = packet.to_data_packet()
        frame = DownlinkFrame(kind="data", cycle=record.cycle,
                              slot_index=slot_index, uid=uid,
                              packet=data_packet)
        if self.config.full_fidelity:
            codewords = [self.codec.encode(data_packet.encode())]
        else:
            codewords = [b""]
        self.forward.broadcast(Transmission(
            sender="base-station", payload=frame, start=when,
            duration=timing.FORWARD_SLOT_TIME, kind="fwd-data",
            codewords=codewords))

    # -- reverse reception --------------------------------------------------------

    def _on_reverse_delivery(self, transmission: Transmission,
                             ok: bool) -> None:
        frame: UplinkFrame = transmission.payload
        now = self.sim.now
        # Measurement gating uses the transmission's *start* time -- the
        # same clock the sender's ``*_sent`` counters use -- so the
        # sent/delivered conservation pairs cannot disagree when a slot
        # straddles the warmup boundary.
        start = transmission.start
        if frame.slot_kind != SLOT_DATA:
            if ok:
                self._touch(frame.uid)
                if self.stats.in_measurement(start):
                    self.stats.gps_packets_delivered += 1
            return
        record = self._records.get(frame.cycle)
        results = record.slot_results if record is not None else ()
        slot_index = frame.slot_index
        if slot_index < len(results):
            result = results[slot_index]
            if result is None:
                result = results[slot_index] = SlotResult()
        else:
            # Sent by a subscriber handed off between hearing its
            # schedule and its slot: the cycle's record is gone, or its
            # layout has no such slot.  No schedule reads this outcome.
            result = SlotResult()
        result.attempts += 1
        if transmission.collided:
            result.collided = True
        if frame.contention and self.stats.in_measurement(start):
            self.stats.contention_attempts += 1
            if transmission.collided:
                self.stats.contention_attempts_collided += 1
        if not ok:
            return
        result.received = True
        if transmission.decoded_info is not None:
            self._verify_wire_decode(frame, transmission.decoded_info)
        if frame.kind == KIND_REGISTRATION:
            self._handle_registration(frame, result)
        elif frame.kind == KIND_RESERVATION:
            self._handle_reservation(frame, result, start)
        elif frame.kind == KIND_DATA:
            self._handle_data(frame, result, start, record)

    @staticmethod
    def _verify_wire_decode(frame: UplinkFrame, info: bytes) -> None:
        """Full fidelity: the decoded bits must match the logical packet.

        The channel delivered the real RS codeword; decoding it and
        comparing against the logical object continuously validates the
        bit-level packet formats under live traffic.  A mismatch means a
        codec or format bug, so it fails loudly.
        """
        from repro.core.packets import decode_uplink
        decoded = decode_uplink(info)
        packet = frame.packet
        if isinstance(packet, DataPacket):
            observed = (decoded.uid, decoded.seq, decoded.piggyback,
                        decoded.payload_len, decoded.more)
            expected = (packet.uid, packet.seq, packet.piggyback,
                        packet.payload_len, packet.more)
        elif isinstance(packet, ReservationPacket):
            observed = (decoded.uid, decoded.requested)
            expected = (packet.uid, packet.requested)
        elif isinstance(packet, RegistrationPacket):
            observed = (decoded.ein, decoded.service)
            expected = (packet.ein, packet.service)
        else:  # pragma: no cover - no other uplink packet kinds exist
            return
        if observed != expected:
            raise AssertionError(
                f"wire decode mismatch: {observed} != {expected}")

    def _handle_registration(self, frame: UplinkFrame,
                             result: SlotResult) -> None:
        packet: RegistrationPacket = frame.packet
        already = self.registration.lookup_ein(packet.ein) is not None
        record = self.registration.approve(packet.ein, packet.service,
                                           self.sim.now)
        if record is None:
            # Out of capacity: no ACK, the subscriber retries.
            self.stats.registrations_rejected_capacity += 1
            return
        if not already and packet.service == SERVICE_GPS:
            slot = self.gps_mgr.admit(record.uid)
            if slot is None:
                self.registration.release(record.uid)
                self.stats.registrations_rejected_gps_slot += 1
                return
        result.ack = AckEntry.registration_reply(packet.ein, record.uid)
        self._last_heard[record.uid] = self.cycle
        if not already:
            # A freshly issued (possibly recycled) UID must not inherit
            # the previous holder's duplicate-suppression history.
            self._recent_seqs.pop(record.uid, None)
            latency = frame.cycle - frame.first_attempt_cycle + 1
            self.stats.registrations_completed += 1
            self.stats.registration_latency_cycles.push(latency)
            if self.on_registration is not None:
                self.on_registration(record)

    def _handle_reservation(self, frame: UplinkFrame,
                            result: SlotResult, start: float) -> None:
        packet: ReservationPacket = frame.packet
        if self.registration.lookup_uid(packet.uid) is None:
            # A deregistered sender gets no ACK and no state: repeated
            # silence is the signal that drives it back to registration.
            self.stats.unknown_uid_drops += 1
            return
        self._last_heard[packet.uid] = self.cycle
        self.demands[packet.uid] = max(
            self.demands.get(packet.uid, 0), packet.requested)
        result.ack = AckEntry.data_ack(packet.uid)
        if self.stats.in_measurement(start):
            self.stats.reservation_packets_received += 1
            if frame.contention:
                latency = frame.cycle - frame.first_attempt_cycle + 1
                self.stats.reservation_latency_cycles.push(latency)

    def _handle_data(self, frame: UplinkFrame, result: SlotResult,
                     start: float, record: Optional[CycleRecord]) -> None:
        packet: DataPacket = frame.packet
        uid = packet.uid
        if self.registration.lookup_uid(uid) is None:
            self.stats.unknown_uid_drops += 1
            return
        self._last_heard[uid] = self.cycle
        self.demands[uid] = packet.piggyback
        result.ack = AckEntry.data_ack(uid)
        now = self.sim.now
        seen = self._recent_seqs.setdefault(uid, set())
        duplicate = packet.seq in seen
        seen.add(packet.seq)
        if len(seen) > 256:
            # Bound memory: drop the oldest half (sequence space is 4096).
            for seq in sorted(seen)[:128]:
                seen.discard(seq)
        if duplicate:
            return
        if self.on_data_packet is not None:
            self.on_data_packet(frame, packet)
        if not self.stats.in_measurement(start):
            return
        self.stats.data_packets_delivered += 1
        self.stats.payload_bytes_delivered += packet.payload_len
        self.stats.per_user_bytes[uid] += packet.payload_len
        self.stats.packet_delay.push(now - packet.created_at)
        if not packet.more and self.stats.in_measurement(
                packet.created_at):
            # Message stats are gated by *creation* time so that the
            # generated/delivered/dropped ledger balances: a message
            # created before the warmup boundary is excluded everywhere.
            self.stats.messages_delivered += 1
            self.stats.message_delay.push(now - packet.created_at)
        if (record is not None
                and frame.slot_index == record.last_data_slot
                and not frame.contention):
            self.stats.data_packets_in_last_slot += 1
        if frame.contention:
            self.stats.data_in_contention_received += 1
            latency = frame.cycle - frame.first_attempt_cycle + 1
            self.stats.reservation_latency_cycles.push(latency)

    # -- housekeeping ---------------------------------------------------------------

    def _prune(self, before_cycle: int) -> None:
        for cycle in [c for c in self._records if c < before_cycle]:
            del self._records[cycle]

    # -- introspection (tests / experiments) -------------------------------------

    def record_for(self, cycle: int) -> Optional[CycleRecord]:
        return self._records.get(cycle)

"""Mobile subscribers: registration state machine and the data user.

A mobile subscriber entering a cell (Section 3.2):

1. listens to the forward channel to synchronize and learn the contention
   slot positions (state ``SYNCING``),
2. transmits a registration request in a randomly chosen contention slot,
   *persisting* every cycle on collision (state ``REGISTERING``) --
   registration has priority over reservation/data contention, which back
   off instead,
3. on seeing its (EIN, user ID) pair in the reverse-ACK field, becomes
   ``ACTIVE``.

An active data subscriber queues e-mail messages fragmented into 44-byte
payload packets and obtains reverse data slots by (Section 3.1):

* an explicit reservation packet in a contention slot,
* a piggyback reservation field in the header of every data packet it
  transmits (the dominant mechanism under load), or
* transmitting a data packet directly in a contention slot (backing off
  *longer* on collision than reservation packets do).

Subscribers are half-duplex: every planned transmit/receive is claimed on
a :class:`~repro.core.radio.HalfDuplexRadio`, which audits the 20 ms
turnaround constraint.  The subscriber scheduled in the last reverse data
slot of a cycle listens to the *second* control-field set of the next
cycle (Section 3.4, Problem 2).
"""

from __future__ import annotations

import math
import random
from collections import deque
from functools import partial
from typing import Deque, Dict, Optional, Set, Tuple

from repro.core.config import CellConfig
from repro.core.fields import ControlFields
from repro.core.frames import (
    DownlinkFrame,
    KIND_DATA,
    KIND_REGISTRATION,
    KIND_RESERVATION,
    SLOT_DATA,
    UplinkFrame,
)
from repro.core.packets import (
    DataPacket,
    MAX_PIGGYBACK,
    MAX_SEQ,
    PAYLOAD_BYTES,
    RegistrationPacket,
    ReservationPacket,
    SERVICE_DATA,
)
from repro.core.radio import HalfDuplexRadio, RX, TX
from repro.metrics import CellStats
from repro.phy import timing
from repro.phy.channel import (
    ForwardChannel,
    Link,
    ReverseChannel,
    Transmission,
)
from repro.phy.rs import RS_64_48
from repro.sim.core import Simulator
from repro.traffic.messages import Message

SYNCING = "syncing"
REGISTERING = "registering"
ACTIVE = "active"
FAILED = "failed"
CRASHED = "crashed"
#: Left this cell for good (cross-shard handoff): the object stays
#: behind as an inert husk while a transfer record re-creates the
#: subscriber in its destination cell (see ``repro.shard``).
DEPARTED = "departed"

#: On-air time of a packet inside a reverse data slot (slot minus guard).
DATA_ON_AIR = timing.DATA_SLOT_TIME - timing.GUARD_TIME
GPS_ON_AIR = timing.GPS_SLOT_TIME - timing.GUARD_TIME


class SubscriberBase:
    """Registration machinery shared by data and GPS subscribers.

    Per-subscriber hot state lives on ``__slots__``: a cell holds a dozen
    subscribers, each dispatching on every control-field set, and
    dict-free attribute access shaves the per-event constant.  Subclasses
    declare their own slots for their additional state.
    """

    __slots__ = ("sim", "config", "ein", "reverse", "forward_link",
                 "reverse_link", "stats", "rng", "entry_time", "name",
                 "state", "uid", "radio", "activated_at",
                 "forward_channel", "alive", "crashes",
                 "recovery_started_at", "_cf2_cycle", "_registration",
                 "_reregister_not_before")

    service = SERVICE_DATA

    def __init__(self, sim: Simulator, config: CellConfig, ein: int,
                 forward: ForwardChannel, reverse: ReverseChannel,
                 forward_link: Link, reverse_link: Link,
                 stats: CellStats, rng: random.Random,
                 entry_time: float = 0.0, name: str = ""):
        self.sim = sim
        self.config = config
        self.ein = ein
        self.reverse = reverse
        self.forward_link = forward_link
        self.reverse_link = reverse_link
        self.stats = stats
        self.rng = rng
        self.entry_time = entry_time
        self.name = name or f"sub-{ein}"

        self.state = SYNCING
        self.uid: Optional[int] = None
        self.radio = HalfDuplexRadio(owner=self.name)
        self.activated_at: Optional[float] = None
        self.forward_channel = forward
        #: False while crashed: the radio is off, nothing is heard or
        #: transmitted (fault injection; see ``repro.faults``).
        self.alive = True
        self.crashes = 0
        #: Set on restart / suspected eviction; cleared (and pushed into
        #: ``stats.recovery_latency_cycles``) when registration completes.
        self.recovery_started_at: Optional[float] = None

        #: Cycle number in which this subscriber must listen to the second
        #: control-field set (because it is transmitting in the previous
        #: cycle's last reverse data slot while CF1 is on the air).
        self._cf2_cycle: Optional[int] = None
        self._registration: Optional[Dict] = None  # pending attempt record
        #: Seeded post-eviction backoff: no registration attempts before
        #: this simulated time (see ``eviction_backoff_jitter_cycles``).
        self._reregister_not_before = 0.0

        forward.attach(ein, forward_link, self._on_forward)

    # -- forward-channel reception dispatch ------------------------------------

    def _on_forward(self, transmission: Transmission, ok: bool) -> None:
        if not self.alive or self.sim.now < self.entry_time:
            return
        frame: DownlinkFrame = transmission.payload
        info = transmission.decoded_info if ok else None
        if frame.kind in ("cf1", "cf2"):
            cf = frame.packet
            if info is not None:
                # Full fidelity: operate on the control fields as decoded
                # from the received RS codewords, not the logical object.
                cf = ControlFields.decode(info)
                cf.cycle_start = frame.packet.cycle_start
            # One set per cycle is ours (Section 3.4, Problem 2): CF2 in
            # the cycle we transmit through CF1, CF1 otherwise.
            if (self._cf2_cycle == cf.cycle) != (cf.which == 2):
                return
            self._on_cf(cf, ok)
        elif frame.kind == "data":
            if info is not None:
                decoded = DataPacket.decode(info)
                if (decoded.uid, decoded.seq) \
                        != (frame.packet.uid, frame.packet.seq):
                    raise AssertionError("downlink wire decode mismatch")
            self._on_forward_data(frame, ok)

    def _on_cf(self, cf: ControlFields, ok: bool) -> None:
        """Our own control-field set: listen to it, then act on it."""
        which = cf.which
        t0 = cf.cycle_start
        if which == 1:
            self.radio.claim(RX, t0 + timing.CF1_OFFSET,
                             t0 + timing.CF1_END, "cf1")
            listen_end = timing.CF1_END
        else:
            self.radio.claim(RX, t0 + timing.CF2_OFFSET,
                             t0 + timing.CF2_END, "cf2")
            listen_end = timing.CF2_END
        if not ok:
            self.stats.cf_losses += 1
            self._on_cf_lost(cf)
            return
        self._handle_cf(cf, listen_end)
        # Prune only once the claim list has grown: the audit scan in
        # ``claim`` stops at the turnaround horizon regardless, so the
        # only job of pruning is bounding memory.
        radio = self.radio
        if radio.claim_count > 64:
            radio.prune(self.sim.now - 2 * timing.CYCLE_LENGTH)

    # -- hooks for subclasses -------------------------------------------------------

    def _handle_cf(self, cf: ControlFields, listen_end: float) -> None:
        raise NotImplementedError

    def _on_cf_lost(self, cf: ControlFields) -> None:
        """Missed a control-field set: sit the cycle out."""

    def _on_forward_data(self, frame: DownlinkFrame, ok: bool) -> None:
        """Downlink data slots; overridden by the data subscriber."""

    # -- registration ---------------------------------------------------------------

    def _check_registration_ack(self, cf: ControlFields) -> None:
        pending = self._registration
        if pending is None:
            return
        if pending["cycle"] == cf.cycle - 1:
            entry = cf.reverse_acks[pending["slot"]]
            if entry.is_registration_reply and entry.ein == self.ein:
                self.uid = entry.uid
                self.state = ACTIVE
                self.activated_at = self.sim.now
                self._registration = None
                if self.recovery_started_at is not None:
                    self.stats.recovery_latency_cycles.push(
                        (self.sim.now - self.recovery_started_at)
                        / timing.CYCLE_LENGTH)
                    self.recovery_started_at = None
                self._on_activated(cf)
                return
            pending["cycle"] = None  # attempt failed; retry below

    def _attempt_registration(self, cf: ControlFields,
                              listen_end: float) -> None:
        if self.state != REGISTERING:
            return
        if self.sim.now < self._reregister_not_before:
            return  # seeded post-eviction backoff: sit this cycle out
        pending = self._registration
        if pending is not None and pending["cycle"] == cf.cycle:
            return  # attempt already scheduled this cycle
        attempts = pending["attempts"] if pending else 0
        if attempts >= self.config.max_registration_attempts:
            self.state = FAILED
            self.stats.registrations_failed += 1
            self._registration = None
            return
        if (self.config.registration_persistence < 1.0
                and self.rng.random()
                > self.config.registration_persistence):
            return  # p-persistence: sit this cycle out
        slot_index = self._choose_contention_slot(cf, listen_end)
        if slot_index is None:
            return
        if pending is None:
            pending = {"first_cycle": cf.cycle,
                       "first_time": self.sim.now,
                       "attempts": 0}
            self._registration = pending
        pending["cycle"] = cf.cycle
        pending["slot"] = slot_index
        pending["attempts"] = attempts + 1
        self.stats.registration_attempts += 1
        packet = RegistrationPacket(ein=self.ein, service=self.service)
        frame = UplinkFrame(kind=KIND_REGISTRATION, cycle=cf.cycle,
                            slot_kind=SLOT_DATA, slot_index=slot_index,
                            packet=packet, uid=None, contention=True,
                            first_attempt_time=pending["first_time"],
                            first_attempt_cycle=pending["first_cycle"])
        self._schedule_data_slot_tx(cf, slot_index, frame)

    def _on_activated(self, cf: ControlFields) -> None:
        """Subclass hook: registration just succeeded."""

    # -- transmission helpers -----------------------------------------------------

    def _choose_contention_slot(self, cf: ControlFields,
                                listen_end: float) -> Optional[int]:
        """Pick a usable contention slot, or None.

        A slot is usable when (a) it starts at least one turnaround time
        after the control-field set this subscriber listened to, and
        (b) transmitting in it keeps a turnaround margin from every
        forward data slot scheduled *to this subscriber* this cycle --
        the half-duplex constraint the base station cannot enforce for
        spontaneous contention transmissions.
        """
        layout = cf.layout()
        margin = timing.MS_TURNAROUND_TIME
        my_forward = []
        if self.uid is not None:
            for index in cf.forward_slots_of(self.uid):
                start = timing.FORWARD_SLOT_OFFSETS[index]
                my_forward.append(
                    (start, start + timing.FORWARD_SLOT_TIME))
        eligible = []
        earliest = listen_end + margin - 1e-9
        data_offsets = layout.data_offsets
        for index in cf.contention_slots():
            start = data_offsets[index]
            if start < earliest:
                continue
            if my_forward:
                end = start + DATA_ON_AIR
                if any(start - margin < fwd_end and fwd_start < end + margin
                       for fwd_start, fwd_end in my_forward):
                    continue
            eligible.append(index)
        if not eligible:
            return None
        return self.rng.choice(eligible)

    def _encode_uplink(self, packet) -> "list[bytes]":
        """Codewords for an uplink packet (real bits in fidelity mode)."""
        if self.config.full_fidelity:
            return [RS_64_48.encode(packet.encode())]
        return [b""]

    def _schedule_data_slot_tx(self, cf: ControlFields, slot_index: int,
                               frame: UplinkFrame) -> None:
        layout = cf.layout()
        start = cf.cycle_start + layout.data_offsets[slot_index]
        self.radio.claim(TX, start, start + DATA_ON_AIR,
                         f"{frame.kind}@{slot_index}")
        codewords = self._encode_uplink(frame.packet)

        def fire() -> None:
            if not self.alive:
                return  # crashed between scheduling and the slot
            self.reverse.transmit(
                Transmission(sender=self.name, payload=frame,
                             start=start, duration=DATA_ON_AIR,
                             kind=frame.kind, codewords=codewords),
                self.reverse_link)

        self.sim.call_at(start, fire)

    def begin_registration(self) -> None:
        """Move from SYNCING to REGISTERING (called on first CF heard)."""
        if self.state == SYNCING:
            self.state = REGISTERING

    # -- dynamic faults: crash, restart, eviction recovery ------------------

    def crash(self) -> None:
        """Power off mid-run: all volatile MAC state is lost.

        The subscriber stops hearing the forward channel and never
        transmits; already-scheduled slot transmissions are suppressed at
        fire time.  The base station keeps the registration until the
        liveness lease expires -- exactly the zombie-state window the
        fault-injection experiments measure.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.state = CRASHED
        self.uid = None
        self._registration = None
        self._cf2_cycle = None
        self.recovery_started_at = None
        self._reregister_not_before = 0.0
        self._on_crashed()

    def restart(self) -> None:
        """Power back on: re-enter the cell from SYNCING (Section 3.2)."""
        if self.alive:
            return
        self.alive = True
        self.state = SYNCING
        self.activated_at = None
        self.recovery_started_at = self.sim.now
        self._on_restarted()

    def _suspect_eviction(self) -> None:
        """Assume the base station deregistered us; re-register.

        Safe even on a false alarm: a registration request for an EIN
        that is still registered returns the existing record, so the
        subscriber merely re-learns its user ID.
        """
        if self.state != ACTIVE:
            return
        self.state = REGISTERING
        self.uid = None
        self._registration = None
        self._cf2_cycle = None
        self.recovery_started_at = self.sim.now
        self.stats.evictions_detected += 1
        # Mass evictions (a base-station restart drops everyone at
        # once) would otherwise retry in lockstep and keep colliding in
        # the same contention slots; a seeded 0..N-cycle backoff
        # de-synchronizes the survivors deterministically.
        jitter = self.config.eviction_backoff_jitter_cycles
        if jitter > 0:
            self._reregister_not_before = (
                self.sim.now
                + self.rng.randrange(jitter + 1) * timing.CYCLE_LENGTH)
        self._on_eviction_suspected()

    def _on_crashed(self) -> None:
        """Subclass hook: drop volatile application state."""

    def _on_restarted(self) -> None:
        """Subclass hook: the subscriber just powered back on."""

    def _on_eviction_suspected(self) -> None:
        """Subclass hook: reset per-registration transmission state."""

    def depart(self) -> None:
        """Leave this cell for good (cross-shard handoff capture).

        Unlike :meth:`crash`, departing is not a fault: the application
        state has already been captured into a transfer record (see
        :meth:`transfer_state`), so nothing is counted as dropped.  The
        husk left behind stops hearing the forward channel and never
        transmits again (scheduled slot transmissions check ``alive`` at
        fire time, exactly as for crashes).
        """
        self.forward_channel.detach(self.ein)
        self.alive = False
        self.state = DEPARTED
        self.uid = None
        self._registration = None
        self._cf2_cycle = None
        self.recovery_started_at = None
        self._reregister_not_before = 0.0

    # -- cross-cell transfer records ---------------------------------------

    def transfer_state(self) -> Dict:
        """JSON-serializable state that travels in a handoff record.

        The base payload identifies the subscriber; subclasses extend it
        with the application state that survives a handoff (the data
        subscriber's uplink queue, the GPS unit's report sequence).
        """
        return {"ein": self.ein, "kind": "sub",
                "radio_tx_end": self.radio.tx_busy_until()}

    def restore_transfer_state(self, state: Dict) -> None:
        """Adopt a :meth:`transfer_state` payload in the new cell."""
        self._defer_cf1_while_transmitting(
            float(state.get("radio_tx_end", 0.0)))

    def _defer_cf1_while_transmitting(self, tx_end: float) -> None:
        """Skip the next CF1 if a tail transmission is still on the air.

        The last uplink slot of a cycle legitimately spills past the
        cycle boundary; in-cell the protocol handles it by having the
        subscriber catch the CF2 rebroadcast (Section 3.1).  A handoff
        must carry that deferral into the new cell, or the half-duplex
        radio would be told to listen to CF1 mid-transmission.
        """
        if tx_end <= 0.0:
            return
        cycle_length = timing.CYCLE_LENGTH
        next_cycle = math.ceil((self.sim.now - 1e-9) / cycle_length)
        cf1_start = next_cycle * cycle_length + timing.CF1_OFFSET
        if tx_end + self.radio.turnaround > cf1_start:
            self._cf2_cycle = next_cycle

    def relocate(self, forward: ForwardChannel, reverse: ReverseChannel,
                 forward_link: Link, reverse_link: Link) -> None:
        """Hand the subscriber off to another cell.

        The radio re-tunes to the new cell's channels and the subscriber
        re-enters the registration state machine from SYNCING (Section
        3.2: a subscriber that newly enters a cell first listens to the
        forward channel, then registers through a contention slot).
        MAC-level state tied to the old cell (user ID, pending
        request/registration, CF2 listening) is discarded; what survives
        is application state, which subclasses carry over via
        :meth:`_on_relocated`.
        """
        self.forward_channel.detach(self.ein)
        self.forward_channel = forward
        self.reverse = reverse
        self.forward_link = forward_link
        self.reverse_link = reverse_link
        forward.attach(self.ein, forward_link, self._on_forward)
        self.uid = None
        self.state = SYNCING
        self.activated_at = None
        self._registration = None
        self._cf2_cycle = None
        self._defer_cf1_while_transmitting(self.radio.tx_busy_until())
        self._on_relocated()

    def _on_relocated(self) -> None:
        """Subclass hook: carry application state across a handoff."""


class DataSubscriber(SubscriberBase):
    """An active non-real-time (e-mail) subscriber."""

    __slots__ = ("queue", "inflight", "_seq", "_backoff_cycles",
                 "_pending_request", "_assigned_keys", "_assigned_nacks",
                 "_forward_seq", "messages_submitted",
                 "on_message_received")

    service = SERVICE_DATA

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue: Deque[DataPacket] = deque()
        self.inflight: Dict[Tuple[int, int], DataPacket] = {}
        self._seq = 0
        self._backoff_cycles = 0
        self._pending_request: Optional[Dict] = None
        #: In-flight keys transmitted in *assigned* (non-contention)
        #: slots; un-ACKed assigned transmissions cannot be collisions,
        #: so a run of them signals deregistration (or a dead link).
        self._assigned_keys: Set[Tuple[int, int]] = set()
        self._assigned_nacks = 0
        self._forward_seq = 0
        self.messages_submitted = 0
        #: Network-layer hook: called with the final DataPacket of each
        #: downlink message received (used for end-to-end delay stats).
        self.on_message_received = None

    # -- application interface --------------------------------------------------

    def next_forward_seq(self) -> int:
        """Allocate the next downlink fragment sequence number.

        The base station's cell-construction helpers call this when
        fragmenting downlink messages into :class:`ForwardPacket`\\ s so
        the per-subscriber sequence space stays consistent without
        reaching into private state.
        """
        seq = self._forward_seq
        self._forward_seq += 1
        return seq

    def submit_message(self, message: Message) -> None:
        """Queue an e-mail for uplink transmission (fragmenting it)."""
        now = self.sim.now
        if self.stats.in_measurement(now):
            self.stats.messages_generated += 1
            self.stats.bytes_offered += message.size_bytes
        if not self.alive:
            # The device is down; its application cannot buffer.
            if self.stats.in_measurement(now):
                self.stats.messages_dropped += 1
            return
        fragments = message.fragments(PAYLOAD_BYTES)
        if len(self.queue) + fragments > self.config.buffer_packets:
            if self.stats.in_measurement(now):
                self.stats.messages_dropped += 1
            return
        self.messages_submitted += 1
        remaining = message.size_bytes
        for index in range(fragments):
            chunk = min(PAYLOAD_BYTES, remaining)
            remaining -= chunk
            self.queue.append(DataPacket(
                uid=self.uid if self.uid is not None else 0,
                seq=self._next_seq(),
                payload_len=chunk,
                more=index < fragments - 1,
                message_id=message.message_id,
                created_at=message.created_at,
                destination_ein=message.destination_ein))

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = (self._seq + 1) % (MAX_SEQ + 1)
        return seq

    # -- control-field handling -------------------------------------------------

    def _handle_cf(self, cf: ControlFields, listen_end: float) -> None:
        if self.state == SYNCING:
            self.begin_registration()
        self._check_registration_ack(cf)
        if self.state == REGISTERING:
            self._attempt_registration(cf, listen_end)
            return
        if self.state != ACTIVE:
            return
        self._process_acks(cf)
        if (self.config.liveness_lease_cycles
                and self._assigned_nacks
                >= self.config.eviction_detect_attempts):
            # Assigned-slot transmissions cannot collide, yet none were
            # ACKed for several cycles: assume we were deregistered.
            self._assigned_nacks = 0
            self._suspect_eviction()
            self._attempt_registration(cf, listen_end)
            return
        self._resolve_pending_request(cf)
        if self.state != ACTIVE:
            # _resolve_pending_request may have concluded we were
            # evicted; start re-registering this very cycle.
            self._attempt_registration(cf, listen_end)
            return
        my_slots = cf.reverse_slots_of(self.uid)
        layout = cf.layout()
        for slot_index in my_slots:
            self._schedule_packet_tx(cf, slot_index)
        if my_slots and my_slots[-1] == layout.data_slots - 1:
            self._cf2_cycle = cf.cycle + 1
        if not my_slots:
            self._maybe_contend(cf, listen_end)
        self._claim_forward_slots(cf)

    def _on_cf_lost(self, cf: ControlFields) -> None:
        """Missed the schedule: requeue in-flight packets, do not transmit."""
        self._requeue_inflight()
        pending = self._pending_request
        if pending is not None and pending.get("await_cycle") is not None:
            self._register_request_failure(pending)

    def _on_activated(self, cf: ControlFields) -> None:
        # Retroactively stamp queued packets with the assigned uid.
        for packet in self.queue:
            packet.uid = self.uid

    def _on_relocated(self) -> None:
        # The uplink queue travels with the subscriber; in-flight packets
        # were never acknowledged by the old cell, so they go back first.
        self._requeue_inflight()
        self._pending_request = None
        self._backoff_cycles = 0

    def transfer_state(self) -> Dict:
        """Uplink queue + sequence state for a cross-shard handoff.

        In-flight packets were never acknowledged by the old cell, so
        they are folded back into the queue head before the snapshot --
        the same contract as an intra-simulator :meth:`relocate`.
        """
        self._requeue_inflight()
        state = super().transfer_state()
        state.update({
            "kind": "data",
            "seq": self._seq,
            "forward_seq": self._forward_seq,
            "messages_submitted": self.messages_submitted,
            "queue": [{
                "seq": packet.seq,
                "payload_len": packet.payload_len,
                "more": packet.more,
                "message_id": packet.message_id,
                "created_at": packet.created_at,
                "destination_ein": packet.destination_ein,
            } for packet in self.queue],
        })
        return state

    def restore_transfer_state(self, state: Dict) -> None:
        super().restore_transfer_state(state)
        self._seq = int(state.get("seq", 0))
        self._forward_seq = int(state.get("forward_seq", 0))
        self.messages_submitted = int(state.get("messages_submitted", 0))
        for entry in state.get("queue", ()):
            self.queue.append(DataPacket(
                uid=self.uid if self.uid is not None else 0,
                seq=int(entry["seq"]),
                payload_len=int(entry["payload_len"]),
                more=bool(entry["more"]),
                message_id=int(entry["message_id"]),
                created_at=float(entry["created_at"]),
                destination_ein=entry.get("destination_ein")))

    def _on_crashed(self) -> None:
        # Volatile buffers are lost with the power.  Every queued or
        # in-flight message tail counts as a dropped message.
        for packet in list(self.queue) + list(self.inflight.values()):
            if (not packet.more
                    and self.stats.in_measurement(packet.created_at)):
                self.stats.messages_dropped += 1
        self.queue.clear()
        self.inflight.clear()
        self._assigned_keys.clear()
        self._assigned_nacks = 0
        self._pending_request = None
        self._backoff_cycles = 0

    def _on_eviction_suspected(self) -> None:
        # Keep the queue (the application state survives) but reset all
        # per-registration transmission machinery.
        self._requeue_inflight()
        self._assigned_keys.clear()
        self._assigned_nacks = 0
        self._pending_request = None
        self._backoff_cycles = 0

    # -- ACK processing ------------------------------------------------------------

    def _process_acks(self, cf: ControlFields) -> None:
        if not self.inflight:
            return
        prev_cycle = cf.cycle - 1
        pending_keys = sorted(
            [key for key in self.inflight if key[0] <= prev_cycle],
            reverse=True)
        for key in pending_keys:
            cycle, slot_index = key
            packet = self.inflight.pop(key)
            assigned = key in self._assigned_keys
            self._assigned_keys.discard(key)
            acked = False
            if cycle == prev_cycle:
                entry = cf.reverse_acks[slot_index]
                acked = entry.is_data_ack and entry.uid == self.uid
            if acked:
                self._assigned_nacks = 0
            else:
                if assigned and cycle == prev_cycle:
                    self._assigned_nacks += 1
                self.queue.appendleft(packet)

    def _requeue_inflight(self) -> None:
        for key in sorted(self.inflight, reverse=True):
            self.queue.appendleft(self.inflight.pop(key))

    # -- data transmission -------------------------------------------------------

    def _schedule_packet_tx(self, cf: ControlFields,
                            slot_index: int) -> None:
        layout = cf.layout()
        start = cf.cycle_start + layout.data_offsets[slot_index]
        self.radio.claim(TX, start, start + DATA_ON_AIR,
                         f"data@{slot_index}")
        self.sim.call_at(start, partial(self._transmit_data, cf.cycle,
                                        slot_index, start, False))

    def _transmit_data(self, cycle: int, slot_index: int, start: float,
                       contention: bool,
                       pending: Optional[Dict] = None) -> None:
        if not self.alive:
            return  # crashed between scheduling and the slot
        if not self.queue:
            return  # queue drained (e.g. ACKs arrived for everything)
        packet = self.queue.popleft()
        packet.piggyback = min(len(self.queue), MAX_PIGGYBACK)
        self.inflight[(cycle, slot_index)] = packet
        if not contention:
            self._assigned_keys.add((cycle, slot_index))
        if self.stats.in_measurement(start):
            self.stats.data_packets_sent += 1
            if contention:
                self.stats.data_in_contention_sent += 1
        # Positional arguments: this runs once per data slot.
        frame = UplinkFrame(
            KIND_DATA, cycle, SLOT_DATA, slot_index, packet, self.uid,
            contention, pending["first_time"] if pending else start,
            pending["first_cycle"] if pending else cycle)
        self.reverse.transmit(
            Transmission(self.name, frame, start, DATA_ON_AIR, KIND_DATA,
                         self._encode_uplink(packet)),
            self.reverse_link)

    # -- contention (reservation / data-in-contention) ---------------------------

    def _maybe_contend(self, cf: ControlFields, listen_end: float) -> None:
        if not self.queue:
            self._pending_request = None  # demand vanished; episode over
            return
        pending = self._pending_request
        if pending is not None and pending.get("await_cycle") is not None:
            return  # a request is in flight, awaiting its ACK
        if self._backoff_cycles > 0:
            self._backoff_cycles -= 1
            return
        slot_index = self._choose_contention_slot(cf, listen_end)
        if slot_index is None:
            return
        use_data = (self.config.data_in_contention
                    and len(self.queue) == 1)
        if pending is None:
            # A new reservation episode starts with its first attempt.
            pending = {"first_cycle": cf.cycle,
                       "first_time": self.sim.now,
                       "attempts": 0}
        pending.update({
            "kind": KIND_DATA if use_data else KIND_RESERVATION,
            "slot": slot_index,
            "await_cycle": cf.cycle,
            "attempts": pending["attempts"] + 1,
        })
        self._pending_request = pending
        layout = cf.layout()
        start = cf.cycle_start + layout.data_offsets[slot_index]
        if use_data:
            self.radio.claim(TX, start, start + DATA_ON_AIR,
                             f"data-contention@{slot_index}")
            self.sim.call_at(start, partial(self._transmit_data, cf.cycle,
                                            slot_index, start, True,
                                            pending))
        else:
            requested = min(len(self.queue), 63)
            packet = ReservationPacket(uid=self.uid, requested=requested)
            frame = UplinkFrame(
                kind=KIND_RESERVATION, cycle=cf.cycle,
                slot_kind=SLOT_DATA, slot_index=slot_index,
                packet=packet, uid=self.uid, contention=True,
                first_attempt_time=pending["first_time"],
                first_attempt_cycle=pending["first_cycle"])
            if self.stats.in_measurement(self.sim.now):
                self.stats.reservation_packets_sent += 1
            self._schedule_data_slot_tx(cf, slot_index, frame)

    def _resolve_pending_request(self, cf: ControlFields) -> None:
        pending = self._pending_request
        if pending is None or pending.get("await_cycle") != cf.cycle - 1:
            return
        entry = cf.reverse_acks[pending["slot"]]
        if entry.is_data_ack and entry.uid == self.uid:
            self._pending_request = None
            self._backoff_cycles = 0
            return
        self._register_request_failure(pending)

    def _register_request_failure(self, pending: Dict) -> None:
        """Collision (or loss): back off -- longer for un-reserved data.

        The episode record is kept (with ``await_cycle`` cleared) so the
        next attempt continues the same reservation-latency episode.
        """
        attempts = pending["attempts"]
        if (self.config.liveness_lease_cycles
                and attempts >= self.config.eviction_detect_attempts):
            # A whole episode of contention attempts went unanswered.
            # Collisions this persistent are unlikely; more likely the
            # base station evicted us while we were idle.
            self._suspect_eviction()
            return
        if pending.get("kind") == KIND_DATA:
            cap = min(2 ** attempts * 2, self.config.data_backoff_cap)
        else:
            cap = min(2 ** attempts, self.config.reservation_backoff_cap)
        self._backoff_cycles = self.rng.randint(1, max(1, cap))
        pending["await_cycle"] = None

    # -- forward channel ------------------------------------------------------------

    def _claim_forward_slots(self, cf: ControlFields) -> None:
        my_slots = cf.forward_slots_of(self.uid)
        if not my_slots:
            return
        t0 = cf.cycle_start
        offsets = timing.FORWARD_SLOT_OFFSETS
        slot_time = timing.FORWARD_SLOT_TIME
        claim = self.radio.claim
        for slot_index in my_slots:
            start = t0 + offsets[slot_index]
            claim(RX, start, start + slot_time, f"fwd@{slot_index}")

    def _on_forward_data(self, frame: DownlinkFrame, ok: bool) -> None:
        if frame.uid != self.uid or self.state != ACTIVE:
            return
        if not ok:
            return
        packet: DataPacket = frame.packet
        if self.stats.in_measurement(self.sim.now):
            self.stats.forward_packets_delivered += 1
            self.stats.forward_delay.push(
                self.sim.now - packet.created_at)
        if not packet.more and self.on_message_received is not None:
            self.on_message_received(packet)

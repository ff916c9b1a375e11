"""The forward-channel control-field block (Section 3.1, Fig. 2).

Each notification cycle carries two control-field sets.  One set is
630 information bits packed into two RS(64,48) codewords (768 information
bits; the remaining 138 bits are reserved -- we spend 24 of the reserved
bits on a cycle counter and a set tag, which is within the paper's
"reserved for future use" budget):

========================  ====  =========================================
field                     bits  contents
========================  ====  =========================================
GPS schedule              48    8 x 6-bit user IDs for the GPS slots
Reverse schedule          54    9 x 6-bit user IDs for the reverse data
                                slots (M = 9); 63 = unassigned/contention
Forward schedule          222   37 x 6-bit user IDs for the forward data
                                slots (N = 37); 63 = idle
Reverse ACKs              198   9 x 22-bit entries: 16-bit EIN + 6-bit
                                user ID (see AckEntry)
Paging                    108   18 x 6-bit user IDs of paged subscribers
========================  ====  =========================================

ACK entry conventions (the paper gives the field's purpose, not its bit
layout):

* empty                -> (ein=0xFFFF, uid=63)
* data/reservation ACK -> (ein=0xFFFF, uid=<acknowledged user>)
* registration reply   -> (ein=<requester's EIN>, uid=<assigned user id>)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.bits import BitReader, BitWriter
from repro.core.packets import UNASSIGNED
from repro.phy import timing
from repro.phy.rs import RS_64_48, ReedSolomon

EIN_EMPTY = 0xFFFF  # sentinel: "no EIN in this ACK entry"


@dataclass(frozen=True)
class AckEntry:
    """One 22-bit reverse-ACK entry."""

    ein: int = EIN_EMPTY
    uid: int = UNASSIGNED

    @property
    def is_empty(self) -> bool:
        return self.ein == EIN_EMPTY and self.uid == UNASSIGNED

    @property
    def is_registration_reply(self) -> bool:
        return self.ein != EIN_EMPTY

    @property
    def is_data_ack(self) -> bool:
        return self.ein == EIN_EMPTY and self.uid != UNASSIGNED

    @staticmethod
    def empty() -> "AckEntry":
        return _DATA_ACKS[UNASSIGNED]

    @staticmethod
    def data_ack(uid: int) -> "AckEntry":
        return _DATA_ACKS[uid]

    @staticmethod
    def registration_reply(ein: int, uid: int) -> "AckEntry":
        return AckEntry(ein=ein, uid=uid)


#: The 64 EIN-less entries, by 6-bit user ID (63, the sentinel, is the
#: empty entry).  Entries are immutable, so every ACK shares these.
_DATA_ACKS: Tuple[AckEntry, ...] = tuple(
    AckEntry(ein=EIN_EMPTY, uid=uid) for uid in range(UNASSIGNED + 1))


def _pad(entries: List[Optional[int]], size: int) -> List[int]:
    padded = [UNASSIGNED if entry is None else entry for entry in entries]
    if len(padded) > size:
        raise ValueError(f"too many entries ({len(padded)} > {size})")
    padded += [UNASSIGNED] * (size - len(padded))
    return padded


@dataclass
class ControlFields:
    """One control-field set, as broadcast on the forward channel.

    Schedules use ``None`` for unassigned entries at the Python level; the
    wire format maps those to the 6-bit sentinel 63.
    """

    cycle: int
    which: int  # 1 = first set, 2 = second set
    gps_schedule: List[Optional[int]] = field(default_factory=list)
    reverse_schedule: List[Optional[int]] = field(default_factory=list)
    forward_schedule: List[Optional[int]] = field(default_factory=list)
    reverse_acks: List[AckEntry] = field(default_factory=list)
    paging: List[Optional[int]] = field(default_factory=list)
    #: Simulation-level: absolute start time of the forward cycle this set
    #: belongs to.  Not on the air (receivers infer it from sync).
    cycle_start: float = 0.0

    def __post_init__(self) -> None:
        if self.which not in (1, 2):
            raise ValueError(f"which must be 1 or 2, got {self.which}")
        # Lazy derived-view caches.  A control-field set is immutable once
        # built (the base station hands each receiver the same object and
        # nobody writes to the schedules), but every subscriber in the cell
        # re-derives the same views from it; caching them here turns ~10
        # identical recomputations per set into one.  Not dataclass fields:
        # equality/repr must keep comparing the wire content only.
        self._layout_cache: Optional[timing.ReverseLayout] = None
        self._contention_cache: Optional[List[int]] = None
        self._reverse_map: Optional[dict] = None
        self._forward_map: Optional[dict] = None

    # -- derived views ------------------------------------------------------

    @property
    def active_gps_users(self) -> int:
        """Number of GPS users announced; implies the reverse format."""
        return sum(1 for uid in self.gps_schedule if uid is not None)

    @property
    def reverse_format(self) -> int:
        return 1 if self.active_gps_users > timing.FORMAT2_GPS_SLOTS else 2

    def layout(self) -> timing.ReverseLayout:
        layout = self._layout_cache
        if layout is None:
            layout = timing.reverse_layout(self.active_gps_users)
            self._layout_cache = layout
        return layout

    def contention_slots(self) -> List[int]:
        """Indices of unassigned reverse data slots (= contention slots).

        The *last* data slot is excluded: it overlaps the next cycle's
        first control-field set, so a contender there could neither hear
        its ACK (which only CF2 carries) nor the next schedule.  Only a
        subscriber *assigned* that slot -- which therefore knows to listen
        to CF2 -- may use it (Section 3.4, Problem 2).

        The returned list is a shared cache; callers must not mutate it.
        """
        slots = self._contention_cache
        if slots is None:
            layout = self.layout()
            reverse_schedule = self.reverse_schedule
            known = len(reverse_schedule)
            slots = [index for index in range(layout.data_slots - 1)
                     if index >= known or reverse_schedule[index] is None]
            self._contention_cache = slots
        return slots

    def reverse_slots_of(self, uid: int) -> Tuple[int, ...]:
        """Reverse data slot indices assigned to ``uid`` (cached per set)."""
        table = self._reverse_map
        if table is None:
            table = {}
            for index, owner in enumerate(self.reverse_schedule):
                if owner is not None:
                    table.setdefault(owner, []).append(index)
            table = {owner: tuple(indices)
                     for owner, indices in table.items()}
            self._reverse_map = table
        return table.get(uid, ())

    def forward_slots_of(self, uid: int) -> Tuple[int, ...]:
        """Forward data slot indices assigned to ``uid`` (cached per set)."""
        table = self._forward_map
        if table is None:
            table = {}
            for index, owner in enumerate(self.forward_schedule):
                if owner is not None:
                    table.setdefault(owner, []).append(index)
            table = {owner: tuple(indices)
                     for owner, indices in table.items()}
            self._forward_map = table
        return table.get(uid, ())

    # -- wire format ----------------------------------------------------------

    def encode(self) -> bytes:
        """Pack into the 96 information bytes of two RS codewords."""
        writer = BitWriter()
        for uid in _pad(self.gps_schedule, timing.GPS_SCHEDULE_ENTRIES):
            writer.write(uid, 6)
        for uid in _pad(self.reverse_schedule,
                        timing.REVERSE_SCHEDULE_ENTRIES):
            writer.write(uid, 6)
        for uid in _pad(self.forward_schedule,
                        timing.FORWARD_SCHEDULE_ENTRIES):
            writer.write(uid, 6)
        acks = list(self.reverse_acks)
        if len(acks) > timing.REVERSE_ACK_ENTRIES:
            raise ValueError("too many ACK entries")
        acks += [AckEntry.empty()] * (timing.REVERSE_ACK_ENTRIES - len(acks))
        for entry in acks:
            writer.write(entry.ein, 16)
            writer.write(entry.uid, 6)
        for uid in _pad(self.paging, timing.PAGING_ENTRIES):
            writer.write(uid, 6)
        assert writer.bit_length == timing.CONTROL_FIELD_USED_BITS
        # Reserved bits: 16-bit cycle counter + 2-bit set tag.
        writer.write(self.cycle & 0xFFFF, 16)
        writer.write(self.which, 2)
        return writer.getvalue(
            pad_to_bytes=timing.CONTROL_FIELD_CODEWORDS
            * timing.RS_INFO_BYTES)

    @classmethod
    def decode(cls, data: bytes) -> "ControlFields":
        reader = BitReader(data)

        def read_uids(count: int) -> List[Optional[int]]:
            return [None if value == UNASSIGNED else value
                    for value in (reader.read(6) for _ in range(count))]

        gps_schedule = read_uids(timing.GPS_SCHEDULE_ENTRIES)
        reverse_schedule = read_uids(timing.REVERSE_SCHEDULE_ENTRIES)
        forward_schedule = read_uids(timing.FORWARD_SCHEDULE_ENTRIES)
        reverse_acks = [AckEntry(ein=reader.read(16), uid=reader.read(6))
                        for _ in range(timing.REVERSE_ACK_ENTRIES)]
        paging = read_uids(timing.PAGING_ENTRIES)
        cycle = reader.read(16)
        which = reader.read(2)
        return cls(cycle=cycle, which=which,
                   gps_schedule=gps_schedule,
                   reverse_schedule=reverse_schedule,
                   forward_schedule=forward_schedule,
                   reverse_acks=reverse_acks,
                   paging=paging)

    def to_codewords(self, codec: ReedSolomon = RS_64_48) -> List[bytes]:
        """RS-encode into the two on-air codewords."""
        info = self.encode()
        return [codec.encode(info[offset:offset + codec.k])
                for offset in range(0, len(info), codec.k)]

    @classmethod
    def from_codewords(cls, codewords: List[bytes],
                       codec: ReedSolomon = RS_64_48) -> "ControlFields":
        """Decode from received codewords; raises RSDecodeFailure on loss."""
        info = b"".join(codec.decode(codeword) for codeword in codewords)
        return cls.decode(info)

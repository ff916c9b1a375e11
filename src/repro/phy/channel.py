"""Forward and reverse channel models.

Semantics (Section 2.2 of the paper):

* The **forward channel** is a broadcast medium: only the base station
  transmits, and every mobile subscriber hears every transmission through
  its own, independent link conditions.
* On the **reverse channel**, only the base station listens.  If two
  transmissions overlap in time, *all* of them fail (collision); the base
  station observes energy but cannot decode anything.
* Each link carries RS(64,48) codewords; a codeword is delivered intact or
  lost (decoder failure), never delivered corrupted.

Two fidelity levels share these semantics:

* ``full_fidelity=True``: the payload's codewords are actually corrupted
  symbol-by-symbol by the error model and run through the real RS decoder.
* ``full_fidelity=False`` (default for large sweeps): an
  :class:`~repro.phy.errors.OutageModel` draw decides delivery per
  codeword.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.phy.errors import ErrorModel, OutageModel, PerfectChannelModel
from repro.phy.intervals import spans_overlap
from repro.phy.rs import RS_64_48, ReedSolomon, RSDecodeFailure
from repro.phy.timing import FORWARD_SYMBOL_RATE, REVERSE_SYMBOL_RATE
from repro.sim.core import Simulator
from repro.sim.rng import RandomStreams


class CollisionError(Exception):
    """Raised internally when overlapping reverse transmissions collide."""


class Transmission:
    """One on-air transmission.

    ``codewords`` carries either placeholders (``[b""] * n`` -- only the
    count matters, the link draws survival per codeword) or, in
    full-fidelity mode, the real RS-encoded codewords; in the latter
    case the receiving link corrupts and decodes them, and the decoded
    information bytes are exposed to the receiver's callback via
    ``decoded_info`` (set per full-fidelity receiver just before its
    callback runs; a broadcast clears it once, not per receiver, since
    a cell's links all share its fidelity).

    A plain ``__slots__`` class (one is allocated for every slot
    transmission and every forward broadcast); ``end`` is precomputed at
    construction since the collision scan reads it repeatedly.
    """

    __slots__ = ("sender", "payload", "start", "duration", "kind",
                 "codewords", "end", "collided", "lost", "decoded_info")

    def __init__(self, sender: Any, payload: Any, start: float,
                 duration: float, kind: str = "data",
                 codewords: Optional[List[bytes]] = None):
        self.sender = sender
        self.payload = payload
        self.start = start
        self.duration = duration
        self.kind = kind
        self.codewords = codewords
        self.end = start + duration
        self.collided = False
        self.lost = False
        self.decoded_info: Optional[bytes] = None

    @property
    def has_real_codewords(self) -> bool:
        return bool(self.codewords) and len(self.codewords[0]) > 0

    def overlaps(self, other: "Transmission") -> bool:
        return spans_overlap(self.start, self.end, other.start, other.end)

    def __repr__(self) -> str:
        return (f"Transmission(sender={self.sender!r}, kind={self.kind!r}, "
                f"start={self.start!r}, duration={self.duration!r}, "
                f"collided={self.collided}, lost={self.lost})")


class Link:
    """Error behaviour of one transmitter->receiver path."""

    def __init__(self, error_model: Optional[ErrorModel] = None,
                 rng: Optional[random.Random] = None,
                 codec: ReedSolomon = RS_64_48,
                 full_fidelity: bool = False):
        self.error_model = error_model or PerfectChannelModel()
        self.rng = rng if rng is not None \
            else RandomStreams(0).stream("link-default")
        self.codec = codec
        self.full_fidelity = full_fidelity
        self.codewords_sent = 0
        self.codewords_lost = 0

    def survives(self, num_codewords: int = 1) -> bool:
        """Decide whether a transmission of ``num_codewords`` survives.

        Used when the payload is passed around as a Python object rather
        than encoded bits: each codeword must individually survive.
        """
        self.codewords_sent += num_codewords
        # Dispatch on the *current* model each call: a FaultInjector can
        # swap ``error_model`` at runtime.
        error_model = self.error_model
        if isinstance(error_model, PerfectChannelModel):
            return True
        rng = self.rng
        if isinstance(error_model, OutageModel):
            for _ in range(num_codewords):
                if error_model.is_lost(rng):
                    self.codewords_lost += num_codewords
                    return False
            return True
        # Symbol-level model: probe the all-zero codeword (RS codes are
        # linear), whose received word is the error pattern.  At most t
        # errors always decode; beyond t the decoder decides, as in
        # ReedSolomon.decode_reference, and a miscorrection delivers.
        codec = self.codec
        n, t = codec.n, codec.t
        for _ in range(num_codewords):
            found = error_model.errors(n, rng)
            if len(found) > t:
                pattern = bytearray(n)
                for index, value in found:
                    pattern[index] = value
                try:
                    codec.decode(pattern)
                except RSDecodeFailure:
                    self.codewords_lost += num_codewords
                    return False
        return True

    def deliver_codewords(self,
                          codewords: List[bytes]) -> Optional[List[bytes]]:
        """Corrupt + decode real codewords; None when any codeword is lost.

        Each transmitted codeword is its own decode reference, so clean
        or lightly-corrupted words skip the full RS decode entirely;
        heavy corruption falls back to the real decoder (the oracle for
        failures *and* miscorrections).
        """
        self.codewords_sent += len(codewords)
        error_model = self.error_model
        rng = self.rng
        decode_reference = self.codec.decode_reference
        decoded: List[bytes] = []
        for codeword in codewords:
            received = error_model.corrupt(codeword, rng)
            try:
                decoded.append(decode_reference(received, codeword))
            except RSDecodeFailure:
                self.codewords_lost += len(codewords)
                return None
        return decoded


DeliveryCallback = Callable[[Transmission, bool], None]


class ReverseChannel:
    """Many transmitters, one receiver (the base station), with collisions.

    The base station registers ``on_delivery(transmission, ok)``; it is
    invoked at each transmission's end time.  ``ok`` is False when the
    transmission collided or the link lost it.  Collisions additionally set
    ``transmission.collided`` so the receiver can distinguish
    energy-without-decode (drives the adaptive contention-slot count) from
    a clean slot.
    """

    def __init__(self, sim: Simulator,
                 symbol_rate: float = REVERSE_SYMBOL_RATE):
        self.sim = sim
        self.symbol_rate = symbol_rate
        self._active: List[Transmission] = []
        self._listeners: List[DeliveryCallback] = []
        self.total_transmissions = 0
        self.total_collisions = 0

    def add_listener(self, callback: DeliveryCallback) -> None:
        self._listeners.append(callback)

    def transmit(self, transmission: Transmission,
                 link: Link) -> Transmission:
        """Start a transmission now; schedules its delivery at end time."""
        if transmission.start != self.sim.now:
            raise ValueError("transmissions must start at the current time")
        self.total_transmissions += 1
        for other in self._active:
            if other.overlaps(transmission):
                if not other.collided:
                    other.collided = True
                    self.total_collisions += 1
                if not transmission.collided:
                    transmission.collided = True
                    self.total_collisions += 1
        self._active.append(transmission)
        self.sim.call_at(transmission.end,
                         partial(self._complete, transmission, link))
        return transmission

    def _complete(self, transmission: Transmission, link: Link) -> None:
        self._active.remove(transmission)
        ok = not transmission.collided
        transmission.decoded_info = None
        if ok:
            if link.full_fidelity and transmission.has_real_codewords:
                decoded = link.deliver_codewords(transmission.codewords)
                ok = decoded is not None
                if ok:
                    transmission.decoded_info = b"".join(decoded)
            else:
                num_codewords = (len(transmission.codewords)
                                 if transmission.codewords is not None
                                 else 1)
                # A perfect link only counts (see Link.survives); a fade
                # may have swapped the model since the last delivery.
                if isinstance(link.error_model, PerfectChannelModel):
                    link.codewords_sent += num_codewords
                else:
                    ok = link.survives(num_codewords)
            transmission.lost = not ok
        for listener in self._listeners:
            listener(transmission, ok)


class ForwardChannel:
    """One transmitter (the base station), broadcast to all subscribers.

    Each receiver has its own :class:`Link`, so a control-field block can
    reach some subscribers and be lost by others -- the failure mode the
    MAC's ACK/timeout machinery must survive.
    """

    def __init__(self, sim: Simulator,
                 symbol_rate: float = FORWARD_SYMBOL_RATE):
        self.sim = sim
        self.symbol_rate = symbol_rate
        #: receiver id -> (link, callback) as attached; change it only
        #: through :meth:`attach` and :meth:`detach`.
        self.receivers: Dict[Any, "tuple[Link, DeliveryCallback]"] = {}
        self.total_broadcasts = 0

    def attach(self, receiver_id: Any, link: Link,
               callback: DeliveryCallback) -> None:
        self.receivers[receiver_id] = (link, callback)

    def detach(self, receiver_id: Any) -> None:
        self.receivers.pop(receiver_id, None)

    def broadcast(self, transmission: Transmission) -> Transmission:
        """Broadcast starting now; per-receiver delivery at end time."""
        if transmission.start != self.sim.now:
            raise ValueError("transmissions must start at the current time")
        self.total_broadcasts += 1
        receivers = list(self.receivers.items())
        self.sim.call_at(transmission.end,
                         partial(self._complete, transmission, receivers))
        return transmission

    def _complete(self, transmission: Transmission, receivers) -> None:
        num_codewords = (len(transmission.codewords)
                         if transmission.codewords is not None else 1)
        transmission.decoded_info = None
        for _receiver_id, (link, callback) in receivers:
            if link.full_fidelity and transmission.has_real_codewords:
                decoded = link.deliver_codewords(transmission.codewords)
                ok = decoded is not None
                transmission.decoded_info = \
                    b"".join(decoded) if decoded is not None else None
            elif isinstance(link.error_model, PerfectChannelModel):
                # A perfect link only counts (see Link.survives); a fade
                # may have swapped the model since the last delivery.
                link.codewords_sent += num_codewords
                ok = True
            else:
                ok = link.survives(num_codewords)
            callback(transmission, ok)
        transmission.decoded_info = None

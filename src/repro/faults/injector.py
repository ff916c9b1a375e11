"""Execute a fault schedule against a built cell.

The injector is armed at cell-construction time (``build_cell`` creates
one whenever ``config.faults`` is non-empty) and schedules every fault as
an ordinary simulator event, so fault runs remain fully deterministic:
the same config and seed produce bit-identical results regardless of
worker count.

Faults fire :data:`FAULT_OFFSET` seconds after the nominal cycle start,
i.e. after the base station has committed that cycle's schedule but
before any reverse slot opens -- the worst moment for a crash, since the
station will spend a whole cycle of slots on a subscriber that no longer
exists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.core.config import CellConfig
from repro.faults.schedule import (
    CHANNEL_FORWARD,
    CHANNEL_REVERSE,
    FaultSpec,
    KIND_CF_STORM,
    KIND_CRASH,
    KIND_FADE,
    KIND_RESTART,
)
from repro.metrics import CellStats
from repro.phy import timing
from repro.phy.channel import DeliveryCallback, Transmission
from repro.phy.errors import OutageModel
from repro.sim.core import Simulator

#: Seconds after the nominal cycle start at which faults fire.
FAULT_OFFSET = 1e-4


class FaultInjector:
    """Arms ``config.faults`` against a cell's live objects."""

    def __init__(self, sim: Simulator, config: CellConfig,
                 subscribers: Sequence, stats: CellStats):
        self.sim = sim
        self.config = config
        self.subscribers = list(subscribers)
        self.stats = stats
        #: Log of fired faults: (time, spec, subscriber name or '*').
        self.fired: List[Tuple[float, FaultSpec, str]] = []
        #: link -> its pre-fade error model.
        self._fade_saved: Dict[int, object] = {}
        self._fade_links: Dict[int, object] = {}
        #: link -> absolute time its last fade window closes.
        self._fade_until: Dict[int, float] = {}
        self._arm()

    # -- arming ----------------------------------------------------------

    def _targets(self, spec: FaultSpec) -> List:
        return [sub for sub in self.subscribers
                if spec.matches(sub.name)]

    def _arm(self) -> None:
        for spec in self.config.faults:
            at = spec.at_cycle * timing.CYCLE_LENGTH + FAULT_OFFSET
            end = ((spec.at_cycle + spec.duration_cycles)
                   * timing.CYCLE_LENGTH + FAULT_OFFSET)
            targets = self._targets(spec)
            if spec.kind == KIND_CRASH:
                for sub in targets:
                    self.sim.call_at(at, lambda s=sub, f=spec:
                                     self._fire_crash(f, s))
            elif spec.kind == KIND_RESTART:
                for sub in targets:
                    self.sim.call_at(at, lambda s=sub, f=spec:
                                     self._fire_restart(f, s))
            elif spec.kind == KIND_FADE:
                self.sim.call_at(at, lambda f=spec, subs=targets,
                                 until=end: self._fire_fade(
                                     f, subs, until))
            elif spec.kind == KIND_CF_STORM:
                for sub in targets:
                    self._storm_gate(sub).add(at, end)
                self.sim.call_at(at, lambda f=spec:
                                 self._note(f, "*"))

    def _note(self, spec: FaultSpec, who: str) -> None:
        self.stats.faults_injected += 1
        self.fired.append((self.sim.now, spec, who))

    # -- crash / restart ---------------------------------------------------

    def _fire_crash(self, spec: FaultSpec, sub) -> None:
        if sub.alive:
            self._note(spec, sub.name)
            sub.crash()

    def _fire_restart(self, spec: FaultSpec, sub) -> None:
        if not sub.alive:
            self._note(spec, sub.name)
            sub.restart()

    # -- deep fades --------------------------------------------------------

    def _fade_targets(self, spec: FaultSpec, subs) -> List:
        links = []
        for sub in subs:
            if spec.channel != CHANNEL_REVERSE:
                links.append(sub.forward_link)
            if spec.channel != CHANNEL_FORWARD:
                links.append(sub.reverse_link)
        return links

    def _fire_fade(self, spec: FaultSpec, subs, until: float) -> None:
        for sub in subs:
            self._note(spec, sub.name)
        for link in self._fade_targets(spec, subs):
            key = id(link)
            if key not in self._fade_saved:
                # First fade on this link: remember the real model.
                self._fade_saved[key] = link.error_model
                self._fade_links[key] = link
            link.error_model = OutageModel(spec.loss)
            self._fade_until[key] = max(
                self._fade_until.get(key, 0.0), until)
            self.sim.call_at(until,
                             lambda k=key: self._maybe_restore(k))

    def _maybe_restore(self, key: int) -> None:
        # Overlapping windows extend ``_fade_until``; only the event
        # matching the furthest window end actually restores the model.
        if key not in self._fade_saved:
            return
        if self.sim.now + 1e-9 < self._fade_until[key]:
            return
        link = self._fade_links.pop(key)
        link.error_model = self._fade_saved.pop(key)
        self._fade_until.pop(key, None)

    # -- control-field storms ---------------------------------------------

    def _storm_gate(self, sub) -> "StormGate":
        """The subscriber's storm gate, installed by the first storm.

        Later injectors (runtime fault ops, journal replay) find the gate
        on the forward callback and add their windows to it, so a
        delivery costs the same however many bursts the cell was given.
        """
        channel = sub.forward_channel
        gate = channel.receivers[sub.ein][1]
        if not isinstance(gate, StormGate):
            gate = StormGate(gate, self.stats)
            channel.attach(sub.ein, sub.forward_link, gate)
        return gate


class StormGate:
    """Loses a subscriber's control-field sets inside storm windows.

    A storm destroys control-field codewords on the victim's link; data
    slots in the same window are left alone (the paper's CF sets are
    longer and more exposed than single data packets, and the
    interesting failure mode is losing the *schedule*).

    A CF set is lost iff its start lies in the union of the gate's
    windows, and ``stats.cf_storm_drops`` counts each lost delivery
    once.  The channel has already made the link's draw: a set the link
    lost passes through uncounted.  The union is kept as sorted,
    disjoint half-open intervals.  The base station is the forward
    channel's only transmitter, so start times never decrease and a
    window that ended before the latest CF set started is dropped.
    """

    __slots__ = ("deliver", "stats", "_starts", "_ends")

    def __init__(self, deliver: DeliveryCallback, stats: CellStats):
        self.deliver = deliver
        self.stats = stats
        self._starts: List[float] = []
        self._ends: List[float] = []

    def add(self, start: float, end: float) -> None:
        """Merge the window ``[start, end)`` into the union."""
        starts, ends = self._starts, self._ends
        # [lo, hi) are the windows that overlap or touch the new one.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]

    def __call__(self, transmission: Transmission, ok: bool) -> None:
        if ok and transmission.kind in ("cf1", "cf2"):
            start = transmission.start
            starts, ends = self._starts, self._ends
            while ends and ends[0] <= start:
                del starts[0]
                del ends[0]
            if starts and starts[0] <= start:
                self.stats.cf_storm_drops += 1
                ok = False
        self.deliver(transmission, ok)

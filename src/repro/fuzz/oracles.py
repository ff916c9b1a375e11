"""The oracle stack: how a fuzz run is judged.

Each oracle inspects one :class:`Observation` (the finished run plus
its timeline) and yields :class:`Violation` records.  A case fails when
any oracle objects; the highest-priority, earliest violation names the
*bucket* the case files under -- ``<oracle>:<fingerprint>``, with the
fingerprint normalized (digits collapsed) so "gps uid 3" and "gps uid
5" land in the same bucket.

Fault awareness: cases are adversarial by construction, so the GPS
deadline and stabilization oracles must not flag the disturbance
itself -- a 5-cycle deep fade legitimately delays GPS reports.  Every
scheduled or runtime disturbance opens an *excused window* extending
``settle_cycles`` past its end (lease expiry + eviction detection +
re-registration margin).  A violation inside a window is forgiven; one
that persists beyond it is a finding.  That asymmetry is exactly what
distinguishes "the protocol rode out the fault" from "the protocol
never recovered" (e.g. the UID-reuse livelock).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.cell import CellRun
from repro.core.registration import RegistrationModule
from repro.core.subscriber import ACTIVE
from repro.faults.injector import StormGate
from repro.faults.schedule import (
    KIND_CRASH,
    KIND_RESTART,
    FaultSpec,
)
from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import settle_cycles
from repro.obs.timeline import TimelineRecorder
from repro.phy import timing
from repro.phy.channel import Transmission

#: Bucket priority: when several oracles object, the case files under
#: the first of these that fired (safety first, then QoS, then
#: convergence, then engine-level harness failures).
ORACLE_ORDER = ("invariants", "conservation", "gps_deadline",
                "stabilization", "harness")


@dataclass(frozen=True)
class Violation:
    """One oracle objection, with enough context to bucket and triage."""

    oracle: str
    cycle: int
    fingerprint: str
    message: str

    def to_json(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "cycle": self.cycle,
                "fingerprint": self.fingerprint,
                "message": self.message}


@dataclass
class Observation:
    """Everything the oracles may look at after a case ran."""

    case: FuzzCase
    run: CellRun
    recorder: TimelineRecorder
    #: Cycles actually simulated.
    cycles: int
    #: The scheduled fault specs (absolute cycles).
    scheduled: Tuple[FaultSpec, ...] = ()
    #: Runtime disturbances as absolute ``(start, end)`` cycle pairs
    #: (serve-mode ops: injected bursts, leaves, joins).
    runtime_disturbances: Tuple[Tuple[int, int], ...] = ()
    #: GPS unit EIN -> what it heard after losing its registry record.
    hearing: Dict[int, "ReleaseHearing"] = field(default_factory=dict)

    @property
    def settle(self) -> int:
        config = self.run.config
        return settle_cycles({
            "liveness_lease_cycles": config.liveness_lease_cycles,
            "eviction_detect_cycles": config.eviction_detect_cycles,
            "eviction_detect_attempts": config.eviction_detect_attempts,
            "eviction_backoff_jitter_cycles":
                config.eviction_backoff_jitter_cycles,
        })


class ReleaseHearing:
    """Counts the CF1 sets a GPS unit heard after its record went.

    It sits in front of the unit's own forward-channel callback, inside
    the unit's storm gate when there is one, so it sees exactly what the
    unit was given: a set that a CF storm dropped arrives here not ok
    and is not counted.  A set heard while the base station still holds
    the unit's record resets the count, so at the end of a run
    ``heard`` is the number of CF1 sets delivered to the unit since the
    base station released its record.
    """

    __slots__ = ("deliver", "ein", "registry", "heard")

    def __init__(self, deliver: Callable[[Transmission, bool], None],
                 ein: int, registry: RegistrationModule):
        self.deliver = deliver
        self.ein = ein
        self.registry = registry
        self.heard = 0

    def __call__(self, transmission: Transmission, ok: bool) -> None:
        if ok and transmission.kind == "cf1":
            if self.registry.lookup_ein(self.ein) is None:
                self.heard += 1
            else:
                self.heard = 0
        self.deliver(transmission, ok)


def watch_hearing(run: CellRun,
                  hearing: Dict[int, ReleaseHearing]) -> None:
    """Put a :class:`ReleaseHearing` on each GPS unit not yet watched."""
    registry = run.base_station.registration
    for unit in run.gps_units:
        if unit.ein in hearing:
            continue
        channel = unit.forward_channel
        link, callback = channel.receivers[unit.ein]
        if isinstance(callback, StormGate):
            watch = ReleaseHearing(callback.deliver, unit.ein, registry)
            callback.deliver = watch
        else:
            watch = ReleaseHearing(callback, unit.ein, registry)
            channel.attach(unit.ein, link, watch)
        hearing[unit.ein] = watch


def normalize_fingerprint(message: str) -> str:
    """Collapse identities so equivalent failures share a bucket."""
    return re.sub(r"\d+", "#", message)[:120]


# -- excused windows ---------------------------------------------------------


def excused_windows(obs: Observation) -> List[Tuple[int, int]]:
    """Cycle intervals inside which QoS degradation is forgiven."""
    settle = obs.settle
    windows: List[Tuple[int, int]] = []
    specs = sorted(obs.scheduled, key=lambda spec: spec.at_cycle)
    for index, spec in enumerate(specs):
        if spec.kind == KIND_CRASH:
            end = obs.cycles  # dead until proven restarted
            for later in specs[index + 1:]:
                if (later.kind == KIND_RESTART
                        and later.target == spec.target):
                    end = later.at_cycle + settle
                    break
            windows.append((spec.at_cycle, end))
        elif spec.kind == KIND_RESTART:
            windows.append((spec.at_cycle, spec.at_cycle + settle))
        else:
            windows.append((spec.at_cycle,
                            spec.at_cycle + spec.duration_cycles
                            + settle))
    for start, end in obs.runtime_disturbances:
        windows.append((start, end + settle))
    return windows


def _excused(cycle: int, windows: List[Tuple[int, int]]) -> bool:
    return any(start <= cycle <= end for start, end in windows)


def quiet_start(obs: Observation) -> int:
    """First cycle by which every disturbance should have settled."""
    settle = obs.settle
    lease = obs.run.config.liveness_lease_cycles
    latest = 0
    specs = sorted(obs.scheduled, key=lambda spec: spec.at_cycle)
    for index, spec in enumerate(specs):
        if spec.kind == KIND_CRASH:
            end = spec.at_cycle + lease  # the lease reaps the record
            for later in specs[index + 1:]:
                if (later.kind == KIND_RESTART
                        and later.target == spec.target):
                    end = later.at_cycle
                    break
            latest = max(latest, end)
        else:
            latest = max(latest,
                         spec.at_cycle + spec.duration_cycles)
    for _, end in obs.runtime_disturbances:
        latest = max(latest, end)
    return latest + settle


# -- the oracles -------------------------------------------------------------


def check_invariants(obs: Observation) -> Iterable[Violation]:
    """Protocol safety: the per-cycle monitor must stay silent.

    Monitor violations are never excused -- the chaos experiments
    established that every fault scenario holds these properties
    throughout, so any hit is a finding.  One violation per distinct
    fingerprint (the first) keeps buckets stable.
    """
    monitor = obs.run.monitor
    if monitor is None:
        return
    seen = set()
    for when, message in monitor.violations:
        fingerprint = normalize_fingerprint(message)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        yield Violation("invariants",
                        int(when / timing.CYCLE_LENGTH),
                        fingerprint, message)


def check_conservation(obs: Observation) -> Iterable[Violation]:
    """Counting must be consistent: flows balance, counters only grow."""
    stats = obs.run.stats
    flows = (
        ("data-packets", stats.data_packets_delivered,
         stats.data_packets_sent),
        ("gps-packets", stats.gps_packets_delivered,
         stats.gps_packets_sent),
        ("slots-used", stats.reverse_data_slots_used,
         stats.reverse_data_slots_total),
        ("slots-assigned", stats.reverse_data_slots_assigned,
         stats.reverse_data_slots_total),
        ("messages", stats.messages_delivered,
         stats.messages_generated),
        ("forward-packets", stats.forward_packets_delivered,
         stats.forward_packets_sent),
    )
    for name, lesser, greater in flows:
        if lesser > greater:
            yield Violation(
                "conservation", obs.cycles, f"flow:{name}",
                f"{name}: {lesser} delivered/used exceeds {greater} "
                f"sent/available")
    counters = (
        ("messages_generated", stats.messages_generated),
        ("messages_delivered", stats.messages_delivered),
        ("messages_dropped", stats.messages_dropped),
        ("lease_evictions", stats.lease_evictions),
        ("evictions_detected", stats.evictions_detected),
        ("faults_injected", stats.faults_injected),
        ("gps_deadline_misses", stats.gps_deadline_misses),
    )
    for name, value in counters:
        if value < 0:
            yield Violation("conservation", obs.cycles,
                            f"negative:{name}",
                            f"counter {name} went negative: {value}")
    population = len(obs.run.data_users)
    for point in obs.recorder.points:
        deltas = (
            ("uplink_transmissions", point.uplink_transmissions),
            ("uplink_collisions", point.uplink_collisions),
            ("lease_evictions", point.lease_evictions),
            ("registrations", point.registrations),
            ("invariant_violations", point.invariant_violations),
        )
        for name, delta in deltas:
            if delta < 0:
                yield Violation(
                    "conservation", point.cycle,
                    f"delta-negative:{name}",
                    f"per-cycle {name} decreased at cycle "
                    f"{point.cycle} ({delta})")
                return  # one decreasing counter floods all later cycles
        if point.registered_data > population \
                or point.registered_gps > timing.MAX_GPS_USERS:
            yield Violation(
                "conservation", point.cycle, "census-overflow",
                f"cycle {point.cycle} registered "
                f"{point.registered_data} data/"
                f"{point.registered_gps} gps, population is "
                f"{population} data/{timing.MAX_GPS_USERS} gps max")
            return


def check_gps_deadline(obs: Observation) -> Iterable[Violation]:
    """The 4-second guarantee, measured from on-air transmissions.

    Only judged on a perfect ambient channel: under ge/iid/outage a
    single lost control field legitimately delays a report past the
    deadline, and the paper's guarantee presumes the link works.
    Scheduled fades on a perfect channel ARE judged -- through their
    excused windows.  Misses inside a window (a fade is still raging,
    an evictee is still re-registering) are forgiven; the first miss
    outside every window is the finding.  Admission is also excused:
    the gap clock starts at a unit's first registration attempt, but
    the deadline only binds once the census has stopped growing.
    """
    if obs.run.config.error_model != "perfect":
        return
    windows = excused_windows(obs)
    reg_end = 0
    previous = 0
    for point in obs.recorder.points:
        if point.registered_gps > previous:
            reg_end = point.cycle
        previous = point.registered_gps
    windows.append((0, reg_end + obs.settle))
    for point in obs.recorder.points:
        margin = point.gps_min_margin_s
        if margin is None or margin >= -1e-9:
            continue
        if _excused(point.cycle, windows):
            continue
        yield Violation(
            "gps_deadline", point.cycle, "deadline-miss",
            f"GPS inter-access gap exceeded the "
            f"{obs.run.config.gps_deadline:.0f}s deadline by "
            f"{-margin:.3f}s at cycle {point.cycle}, outside every "
            f"excused fault window")
        return


def check_stabilization(obs: Observation) -> Iterable[Violation]:
    """Post-burst convergence: the cell must return to a clean state.

    Judged only when the run extends past ``quiet_start`` (every
    disturbance plus its settle margin), and only with liveness leases
    on -- without leases there is no eviction, hence no zombie state to
    converge out of.  A GPS unit is a zombie only once it has heard
    ``eviction_detect_cycles`` CF1 sets since the base station released
    its record: a unit the ambient channel silenced until the run ended
    could not have noticed its eviction yet.
    """
    config = obs.run.config
    if config.liveness_lease_cycles <= 0:
        return
    quiet = quiet_start(obs)
    if quiet + 2 > obs.cycles:
        return  # not enough tail to judge convergence
    registry = obs.run.base_station.registration
    for unit in obs.run.gps_units:
        if not unit.alive or unit.state != ACTIVE or unit.uid is None:
            continue
        if registry.lookup_ein(unit.ein) is not None:
            continue
        watch = obs.hearing.get(unit.ein)
        heard = watch.heard if watch is not None else 0
        if heard >= config.eviction_detect_cycles:
            yield Violation(
                "stabilization", obs.cycles,
                "gps-zombie",
                f"{unit.name} is still ACTIVE with uid {unit.uid} "
                f"after cycle {quiet} but holds no registry record -- "
                f"it heard {heard} control fields since the release "
                f"yet never detected its eviction")
    for sub in obs.run.data_users + obs.run.gps_units:
        if sub.alive:
            continue
        if registry.lookup_ein(sub.ein) is not None:
            yield Violation(
                "stabilization", obs.cycles,
                "dead-but-registered",
                f"{sub.name} powered off but its registry record "
                f"survived past cycle {quiet} despite the "
                f"{config.liveness_lease_cycles}-cycle lease")


def evaluate(obs: Observation) -> List[Violation]:
    """Run the full stack; violations sorted by bucket priority."""
    violations: List[Violation] = []
    violations.extend(check_invariants(obs))
    violations.extend(check_conservation(obs))
    violations.extend(check_gps_deadline(obs))
    violations.extend(check_stabilization(obs))
    violations.sort(key=lambda violation: (
        ORACLE_ORDER.index(violation.oracle), violation.cycle,
        violation.fingerprint))
    return violations


def bucket_of(violations: List[Violation]) -> Optional[str]:
    """The bucket a failing case files under (None when clean)."""
    if not violations:
        return None
    first = violations[0]
    return f"{first.oracle}:{first.fingerprint}"

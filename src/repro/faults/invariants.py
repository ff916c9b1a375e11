"""Continuous protocol-invariant checking.

A white-box monitor that inspects the base station's and subscribers'
internal state once per notification cycle (late in the cycle, after the
schedule is committed and the lease sweep has run) and records every
violated safety property.  Enabled via ``CellConfig.check_invariants``;
the chaos experiments run it under every fault scenario so that "the
protocol survived" means *all* of these held the whole time, not merely
that throughput stayed positive.

Checked every cycle:

* registry consistency -- EIN<->UID bijection, incremental per-service
  counters equal to an O(n) rescan
  (:meth:`RegistrationModule.check_invariants`);
* GPS slot legality -- no duplicate slots, R1-R3 prefix consolidation
  (:meth:`GpsSlotManager.check_invariants`), and slot-ownership exactly
  matching the set of registered GPS users;
* GPS service completeness -- every GPS user registered before this
  cycle started holds a slot in this cycle's schedule (the structural
  guarantee behind the 4-second access deadline);
* schedule/registry consistency -- every UID in the cycle's GPS and
  reverse-data schedules is currently registered;
* bookkeeping hygiene -- demand, duplicate-suppression and lease tables
  hold no unregistered UIDs (leaks here are exactly what the eviction
  path must prevent);
* subscriber/base-station agreement -- an alive ACTIVE subscriber whose
  EIN is registered believes the UID the registry assigned it;
* radio-timeline legality -- no new half-duplex turnaround violations
  appeared on any subscriber radio.

Violations are counted into ``stats.invariant_violations`` and kept,
with timestamps, in :attr:`InvariantMonitor.violations`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.base_station import BaseStation
from repro.core.config import CellConfig
from repro.core.packets import SERVICE_GPS
from repro.core.subscriber import ACTIVE
from repro.metrics import CellStats
from repro.phy import timing
from repro.sim.core import Simulator

#: Offset into each cycle at which the periodic check runs: late enough
#: that the cycle's schedule is committed and most slots have resolved.
CHECK_OFFSET = 0.9 * timing.CYCLE_LENGTH


class InvariantMonitor:
    """Per-cycle safety-property checker for one cell."""

    def __init__(self, sim: Simulator, config: CellConfig,
                 base_station: BaseStation, data_users: List,
                 gps_units: List, stats: CellStats):
        self.sim = sim
        self.config = config
        self.base_station = base_station
        # Live references, not copies: the service mode appends
        # runtime-joined subscribers to the cell's lists mid-run, and
        # they must fall under the monitor the moment they power on.
        self.data_users = data_users
        self.gps_units = gps_units
        self.stats = stats
        self.violations: List[Tuple[float, str]] = []
        self.checks_run = 0
        self._radio_seen = 0
        sim.call_at(sim.now, self._start)

    def _start(self) -> None:
        self.sim.call_at(self.sim.now + CHECK_OFFSET, self._check_tick)

    def _check_tick(self) -> None:
        self.check_now()
        self.sim.call_at(self.sim.now + timing.CYCLE_LENGTH,
                         self._check_tick)

    # -- the actual checks -------------------------------------------------

    def check_now(self) -> List[str]:
        """Run every check once; returns (and records) new violations."""
        failures: List[str] = []
        bs = self.base_station
        registry = bs.registration

        try:
            registry.check_invariants()
        except AssertionError as exc:
            failures.append(f"registry: {exc}")
        try:
            bs.gps_mgr.check_invariants()
        except AssertionError as exc:
            failures.append(f"gps-slots: {exc}")

        records = registry.registrants()
        registered_uids = {record.uid for record in records}
        gps_uids = {record.uid for record in records
                    if record.service == SERVICE_GPS}

        # GPS slot ownership must exactly mirror the GPS registrants.
        for uid in gps_uids:
            if bs.gps_mgr.slot_of(uid) is None:
                failures.append(f"gps uid {uid} registered but slotless")
        owners = {uid for uid in bs.gps_mgr.schedule() if uid is not None}
        for uid in sorted(owners - gps_uids):
            failures.append(f"gps slot held by unregistered uid {uid}")

        # Schedules may only name registered subscribers, and every GPS
        # user admitted before the cycle started must be scheduled.
        record = bs.record_for(bs.cycle)
        if record is not None:
            for label, assignment in (
                    ("gps", record.gps_assignment),
                    ("reverse-data", record.data_assignment)):
                for uid in assignment:
                    if uid is not None and uid not in registered_uids:
                        failures.append(
                            f"{label} schedule lists unregistered "
                            f"uid {uid}")
            scheduled = {uid for uid in record.gps_assignment
                         if uid is not None}
            for reg in records:
                if (reg.service == SERVICE_GPS
                        and reg.registered_at <= record.start
                        and reg.uid not in scheduled):
                    failures.append(
                        f"gps uid {reg.uid} has no slot in cycle "
                        f"{record.cycle}")

        # Per-UID bookkeeping must not leak past deregistration.
        for label, table in (("demands", bs.demands),
                             ("recent-seqs", bs._recent_seqs),
                             ("last-heard", bs._last_heard)):
            for uid in sorted(set(table) - registered_uids):
                failures.append(
                    f"{label} table holds unregistered uid {uid}")

        # An alive ACTIVE subscriber's UID belief must match the
        # registry whenever its EIN is (still) registered.  (An evicted
        # subscriber that has not noticed yet has no registry record --
        # that zombie window is legal and bounded by detection.)
        for sub in self.data_users + self.gps_units:
            if not sub.alive or sub.state != ACTIVE or sub.uid is None:
                continue
            reg = registry.lookup_ein(sub.ein)
            if reg is not None and reg.uid != sub.uid:
                failures.append(
                    f"{sub.name} believes uid {sub.uid}, registry "
                    f"says {reg.uid}")

        # Radio-timeline legality: no new turnaround violations.
        total = sum(len(sub.radio.violations)
                    for sub in self.data_users + self.gps_units)
        if total > self._radio_seen:
            failures.append(
                f"{total - self._radio_seen} new radio timeline "
                f"violations")
            self._radio_seen = total

        self.checks_run += 1
        now = self.sim.now
        for message in failures:
            self.violations.append((now, message))
        self.stats.invariant_violations += len(failures)
        self._publish(len(failures))
        return failures

    def _publish(self, new_violations: int) -> None:
        """Mirror the check into the process-global metrics registry.

        Imported lazily (``repro.obs`` imports the cell module) and a
        couple of no-op calls when the registry is disabled.
        """
        from repro.obs.registry import default_registry

        registry = default_registry()
        if not registry.enabled:
            return
        registry.counter(
            "osu_invariant_checks_total",
            "Invariant-monitor sweeps").inc()
        registry.counter(
            "osu_invariant_violations_total",
            "Violated protocol safety properties"
        ).inc(new_violations)

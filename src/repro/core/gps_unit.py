"""GPS subscribers: the real-time bus-tracking application (Section 2.1).

Each bus carries a GPS unit that produces short (72-bit) location reports
periodically.  Reports are *not* retransmitted on loss; timeliness is the
QoS goal: an active GPS user must be able to transmit a report within
4 seconds of its arrival (the paper's access-delay requirement), which
OSU-MAC guarantees by assigning every active GPS user one GPS slot per
notification cycle, consolidated under rules R1--R3.

The unit registers through the same contention procedure as data users
(service class GPS), then transmits its freshest pending report in its
assigned GPS slot each cycle.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.core.fields import ControlFields
from repro.core.frames import KIND_GPS, SLOT_GPS, UplinkFrame
from repro.core.packets import GPSPacket, SERVICE_GPS
from repro.core.radio import TX
from repro.core.subscriber import (
    ACTIVE,
    GPS_ON_AIR,
    REGISTERING,
    SYNCING,
    SubscriberBase,
)
from repro.phy.channel import Transmission


class GpsSubscriber(SubscriberBase):
    """A bus-mounted GPS unit."""

    __slots__ = ("report_period", "_pending_report", "_seq",
                 "_last_tx_time", "_missing_cycles", "reports_generated",
                 "reports_superseded")

    service = SERVICE_GPS

    def __init__(self, *args, report_period: Optional[float] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.report_period = (report_period
                              if report_period is not None
                              else self.config.gps_report_period)
        self._pending_report: Optional[GPSPacket] = None
        self._seq = 0
        self._last_tx_time: Optional[float] = None
        #: Consecutive heard control fields with no GPS slot for us.
        self._missing_cycles = 0
        self.reports_generated = 0
        self.reports_superseded = 0
        self.sim.call_at(self.sim.now, self._start_reports)

    # -- report generation ----------------------------------------------------------

    def _start_reports(self) -> None:
        now = self.sim.now
        if self.entry_time > now:
            self.sim.call_at(now + (self.entry_time - now),
                             self._draw_report_phase)
        else:
            self._draw_report_phase()

    def _draw_report_phase(self) -> None:
        # Random phase so report arrivals are uncorrelated with slots.
        self.sim.call_at(
            self.sim.now + self.rng.uniform(0, self.report_period),
            self._report_tick)

    def _report_tick(self) -> None:
        if self.alive:
            self._generate_report()
        self.sim.call_at(self.sim.now + self.report_period,
                         self._report_tick)

    def _generate_report(self) -> None:
        report = GPSPacket(
            uid=self.uid if self.uid is not None else 0,
            seq=self._seq,
            latitude=self.rng.randrange(1 << 28),
            longitude=self.rng.randrange(1 << 28),
            created_at=self.sim.now)
        self._seq = (self._seq + 1) % (1 << 10)
        self.reports_generated += 1
        if self._pending_report is not None:
            # A newer location fix supersedes the stale one (the MAC never
            # queues GPS backlog; only timeliness matters).
            self.reports_superseded += 1
        self._pending_report = report

    # -- control-field handling -------------------------------------------------------

    def _handle_cf(self, cf: ControlFields, listen_end: float) -> None:
        if self.state == SYNCING:
            self.begin_registration()
        self._check_registration_ack(cf)
        if self.state == REGISTERING:
            self._attempt_registration(cf, listen_end)
            return
        if self.state != ACTIVE:
            return
        try:
            slot_index = cf.gps_schedule.index(self.uid)
        except ValueError:
            if self.config.liveness_lease_cycles:
                # Every active GPS user is scheduled every cycle
                # (Section 2.1), so a missing slot in a *heard* control
                # field means the base station dropped us.
                self._missing_cycles += 1
                if (self._missing_cycles
                        >= self.config.eviction_detect_cycles):
                    self._suspect_eviction()
                    self._attempt_registration(cf, listen_end)
            return
        self._missing_cycles = 0
        layout = cf.layout()
        if slot_index >= layout.gps_slots:
            return
        start = cf.cycle_start + layout.gps_offsets[slot_index]
        self.radio.claim(TX, start, start + GPS_ON_AIR,
                         f"gps@{slot_index}")
        self.sim.call_at(start, partial(self._transmit_report, cf.cycle,
                                        slot_index, start))

    def _on_activated(self, cf: ControlFields) -> None:
        # Discard reports that aged out while we were registering: the
        # access-delay QoS clock starts when the unit becomes active.
        if (self._pending_report is not None
                and self._pending_report.created_at < self.sim.now):
            self._pending_report = None
        self._last_tx_time = None
        self._missing_cycles = 0

    def _on_crashed(self) -> None:
        # The pending fix dies with the unit; fresh state on restart.
        self._pending_report = None
        self._last_tx_time = None
        self._missing_cycles = 0

    def _on_eviction_suspected(self) -> None:
        self._missing_cycles = 0

    def transfer_state(self) -> dict:
        """Report-sequence continuity for a cross-shard handoff.

        Pending location fixes do not travel: they would age out during
        re-registration anyway (see :meth:`_on_activated`), matching the
        protocol's no-backlog rule for GPS reports.
        """
        state = super().transfer_state()
        state.update({"kind": "gps", "seq": self._seq,
                      "reports_generated": self.reports_generated})
        return state

    def restore_transfer_state(self, state: dict) -> None:
        super().restore_transfer_state(state)
        self._seq = int(state.get("seq", 0))
        self.reports_generated = int(
            state.get("reports_generated", 0))

    def _transmit_report(self, cycle: int, slot_index: int,
                         start: float) -> None:
        if not self.alive:
            return  # crashed between scheduling and the slot
        measured = self.stats.in_measurement(start)
        report = self._pending_report
        fresh_sample = report is None
        if fresh_sample:
            # No queued report (e.g. the slot just moved *earlier* via an
            # R3 reassignment, landing before this cycle's periodic
            # sample): the GPS receiver has a continuous fix, so the unit
            # samples its current position and transmits that.  The slot
            # is never wasted and the inter-transmission gap stays
            # bounded by one cycle.
            report = GPSPacket(
                uid=self.uid, seq=self._seq,
                latitude=self.rng.randrange(1 << 28),
                longitude=self.rng.randrange(1 << 28),
                created_at=start)
            self._seq = (self._seq + 1) % (1 << 10)
        self._pending_report = None
        if measured:
            self.stats.gps_packets_sent += 1
            if not fresh_sample:
                # Access delay is defined over *queued* report arrivals
                # (Section 2.1); an on-demand sample has zero delay by
                # construction and would only dilute the statistic.
                delay = start - report.created_at
                self.stats.gps_access_delay.push(delay)
                if delay > self.config.gps_deadline:
                    self.stats.gps_deadline_misses += 1
            if (self._last_tx_time is not None
                    and start - self._last_tx_time
                    > self.config.gps_deadline + 1e-9):
                self.stats.gps_deadline_misses += 1
        self._last_tx_time = start
        # Positional arguments: this runs once per GPS slot.
        frame = UplinkFrame(KIND_GPS, cycle, SLOT_GPS, slot_index, report,
                            self.uid)
        self.reverse.transmit(
            Transmission(self.name, frame, start, GPS_ON_AIR, KIND_GPS,
                         [b""]),
            self.reverse_link)

"""Counters and summaries recorded during a cell simulation.

Every figure in the paper's evaluation section is computed from the
fields collected here; the accessor methods at the bottom map one-to-one
onto the figures (see DESIGN.md section 4).  No summary keeps its
samples, so a cell's statistics stay the same size however long it runs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.metrics.fairness import jain_fairness_index


class SummaryStats:
    """Streaming summary: count, mean, std, min and max; no samples."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def push(self, value: float) -> None:
        value = float(value)
        count = self.count = self.count + 1
        delta = value - self._mean
        self._mean += delta / count
        self._m2 += delta * (value - self._mean)
        if count == 1:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (f"SummaryStats(count={self.count}, mean={self.mean:.4g}, "
                f"std={self.std:.4g}, min={self.min}, max={self.max})")


class CountedStats(SummaryStats):
    """A summary that also counts each value: for whole-cycle latencies,
    whose few distinct values make :meth:`fraction_at_most` exact."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: Dict[float, int] = defaultdict(int)

    def push(self, value: float) -> None:
        super().push(value)
        self.counts[float(value)] += 1

    def fraction_at_most(self, threshold: float) -> float:
        """Fraction of values <= ``threshold`` (0.0 when empty)."""
        return sum(count for value, count in self.counts.items()
                   if value <= threshold) / max(self.count, 1)


@dataclass
class CellStats:
    """Everything a cell simulation measures.

    ``warmup_until`` gates the steady-state counters: events before that
    time are ignored (registration statistics are exempt because
    registration happens during warmup by design).
    """

    cycle_length: float = 0.0
    warmup_until: float = 0.0
    measured_cycles: int = 0
    data_slots_per_cycle: int = 0
    payload_bytes_per_slot: int = 0

    # -- data plane -------------------------------------------------------
    data_packets_sent: int = 0
    data_packets_delivered: int = 0
    data_packets_in_last_slot: int = 0
    payload_bytes_delivered: int = 0
    per_user_bytes: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int))
    message_delay: SummaryStats = field(default_factory=SummaryStats)
    packet_delay: SummaryStats = field(default_factory=SummaryStats)
    messages_generated: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_offered: int = 0

    # -- reverse-slot occupancy ------------------------------------------
    reverse_data_slots_total: int = 0
    reverse_data_slots_assigned: int = 0
    reverse_data_slots_used: int = 0

    # -- contention ---------------------------------------------------------
    reservation_packets_sent: int = 0
    reservation_packets_received: int = 0
    data_in_contention_sent: int = 0
    data_in_contention_received: int = 0
    contention_attempts: int = 0
    contention_attempts_collided: int = 0
    contention_slots_total: int = 0
    contention_slots_used: int = 0
    contention_slots_collided: int = 0
    contention_slots_idle: int = 0
    reservation_latency_cycles: SummaryStats = field(
        default_factory=SummaryStats)

    # -- registration (not warmup-gated) -------------------------------------
    registration_attempts: int = 0
    registration_latency_cycles: CountedStats = field(
        default_factory=CountedStats)
    registrations_completed: int = 0
    registrations_failed: int = 0
    #: Admission failures, split by cause so chaos tables can report
    #: admission pressure instead of hiding it.
    registrations_rejected_capacity: int = 0
    registrations_rejected_gps_slot: int = 0

    # -- robustness: faults, leases, recovery (not warmup-gated) -----------
    faults_injected: int = 0
    lease_evictions: int = 0  # base station: lease expired, deregistered
    evictions_detected: int = 0  # subscribers: noticed and re-registered
    unknown_uid_drops: int = 0  # uplink from a UID not in the registry
    cf_storm_drops: int = 0  # control-field sets killed by a CF storm
    invariant_violations: int = 0  # from repro.faults.invariants
    #: Restart/eviction -> re-registered latency, in notification cycles.
    recovery_latency_cycles: SummaryStats = field(
        default_factory=SummaryStats)

    # -- GPS ----------------------------------------------------------------
    gps_packets_sent: int = 0
    gps_packets_delivered: int = 0
    gps_packets_skipped: int = 0  # cycles a GPS unit could not transmit
    gps_access_delay: SummaryStats = field(default_factory=SummaryStats)
    gps_deadline_misses: int = 0

    # -- forward channel ------------------------------------------------------
    forward_packets_sent: int = 0
    forward_packets_delivered: int = 0
    forward_slots_total: int = 0
    forward_slots_assigned: int = 0
    forward_delay: SummaryStats = field(default_factory=SummaryStats)

    # -- radio audit ----------------------------------------------------------
    radio_violations: int = 0
    cf_losses: int = 0

    def in_measurement(self, now: float) -> bool:
        return now >= self.warmup_until

    # -- figure accessors --------------------------------------------------

    def utilization(self) -> float:
        """Fig. 8(a): MAC-level bytes delivered / reverse data capacity.

        Each delivered packet occupies one slot of
        ``payload_bytes_per_slot`` capacity, so this equals (packets
        delivered) / (data slots available) and is directly comparable to
        the load index (which is computed against MAC-level bytes too).
        """
        capacity = self.measured_cycles * self.data_slots_per_cycle
        return self.data_packets_delivered / capacity if capacity else 0.0

    def goodput_utilization(self) -> float:
        """Application bytes delivered / reverse data byte capacity."""
        capacity = (self.measured_cycles * self.data_slots_per_cycle
                    * self.payload_bytes_per_slot)
        return self.payload_bytes_delivered / capacity if capacity else 0.0

    def slot_utilization(self) -> float:
        """Reverse data slots that carried a delivered packet."""
        if not self.reverse_data_slots_total:
            return 0.0
        return self.reverse_data_slots_used / self.reverse_data_slots_total

    def mean_message_delay_cycles(self) -> float:
        """Fig. 8(b): mean e-mail message delay in notification cycles."""
        if not self.cycle_length:
            return 0.0
        return self.message_delay.mean / self.cycle_length

    def control_overhead(self) -> float:
        """Fig. 9/10: reservation packets / data packets (in data slots)."""
        if not self.data_packets_delivered:
            return 0.0
        return self.reservation_packets_sent / self.data_packets_delivered

    def collision_probability(self) -> float:
        """Fig. 10(a)/9(a): P[a used contention slot sees a collision]."""
        engaged = self.contention_slots_used + self.contention_slots_collided
        if not engaged:
            return 0.0
        return self.contention_slots_collided / engaged

    def attempt_collision_probability(self) -> float:
        """Alternative: P[a contention attempt collides]."""
        if not self.contention_attempts:
            return 0.0
        return self.contention_attempts_collided / self.contention_attempts

    def mean_reservation_latency_cycles(self) -> float:
        """Fig. 10(b)/9(b)."""
        return self.reservation_latency_cycles.mean

    def fairness(self) -> float:
        """Fig. 11: Jain index over per-subscriber delivered bytes."""
        return jain_fairness_index(self.per_user_bytes.values())

    def second_cf_gain(self) -> float:
        """Fig. 12(a): share of data packets carried by the last slot."""
        if not self.data_packets_delivered:
            return 0.0
        return self.data_packets_in_last_slot / self.data_packets_delivered

    def mean_data_slots_used(self) -> float:
        """Fig. 12(b): average reverse data slots used per cycle."""
        if not self.measured_cycles:
            return 0.0
        return self.reverse_data_slots_used / self.measured_cycles

    def registration_cdf(self, cycles: int) -> float:
        """Section 2.1 goal: P[registration latency <= ``cycles``]."""
        return self.registration_latency_cycles.fraction_at_most(cycles)

    def message_loss_rate(self) -> float:
        if not self.messages_generated:
            return 0.0
        return self.messages_dropped / self.messages_generated

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline numbers (for reports/benches)."""
        return {
            "utilization": self.utilization(),
            "slot_utilization": self.slot_utilization(),
            "mean_message_delay_cycles": self.mean_message_delay_cycles(),
            "control_overhead": self.control_overhead(),
            "collision_probability": self.collision_probability(),
            "mean_reservation_latency_cycles":
                self.mean_reservation_latency_cycles(),
            "fairness": self.fairness(),
            "second_cf_gain": self.second_cf_gain(),
            "mean_data_slots_used": self.mean_data_slots_used(),
            "message_loss_rate": self.message_loss_rate(),
            "gps_max_access_delay": self.gps_access_delay.max or 0.0,
            "gps_deadline_misses": float(self.gps_deadline_misses),
            "radio_violations": float(self.radio_violations),
            "messages_dropped": float(self.messages_dropped),
            "registrations_rejected": float(
                self.registrations_rejected_capacity
                + self.registrations_rejected_gps_slot),
            "lease_evictions": float(self.lease_evictions),
            "faults_injected": float(self.faults_injected),
            "evictions_detected": float(self.evictions_detected),
            "recoveries": float(self.recovery_latency_cycles.count),
            "mean_recovery_cycles": self.recovery_latency_cycles.mean,
            "max_recovery_cycles":
                self.recovery_latency_cycles.max or 0.0,
            "invariant_violations": float(self.invariant_violations),
        }

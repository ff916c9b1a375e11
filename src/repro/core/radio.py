"""Half-duplex radio model for mobile subscribers (Section 2.2).

A mobile subscriber can transmit or receive, never both, and a 20 ms
guard is required when switching between the two.  The base station has a
separate transmitter and receiver and is exempt.

Rather than *enforcing* the constraint (the scheduler is responsible for
never producing a conflicting schedule), the radio *audits* it: every
claimed transmit/receive interval is checked against the already claimed
ones, and violations are recorded.  Integration tests assert that a full
simulation finishes with zero violations -- which is exactly the property
the paper's two-control-field design and scheduling constraints exist to
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from repro.phy import timing
from repro.phy.intervals import spans_overlap

TX = "tx"
RX = "rx"

#: A claim as the radio stores it: ``(kind, start, end, label)``.
_Claim = Tuple[str, float, float, str]


class RadioClaim(NamedTuple):
    """One scheduled use of the radio.

    The radio stores each claim as a plain ``(kind, start, end, label)``
    tuple -- subscribers record one for every control-field reception
    and every scheduled slot, making claims among the most-created
    objects in a cell run -- and builds this named view of it only for
    a recorded violation.  The two compare equal field for field.
    """

    kind: str  # TX or RX
    start: float
    end: float
    label: str = ""


@dataclass(frozen=True)
class RadioViolation:
    """A half-duplex conflict between two claims."""

    first: RadioClaim
    second: RadioClaim
    reason: str


class HalfDuplexRadio:
    """Audits one subscriber's transmit/receive timeline."""

    def __init__(self, owner: str = "",
                 turnaround: float = timing.MS_TURNAROUND_TIME):
        self.owner = owner
        self.turnaround = turnaround
        self._claims: List[_Claim] = []
        self.violations: List[RadioViolation] = []

    def claim(self, kind: str, start: float, end: float,
              label: str = "") -> _Claim:
        """Record a scheduled TX/RX interval and audit it.

        Returns the stored ``(kind, start, end, label)`` tuple.
        """
        if kind not in (TX, RX):
            raise ValueError(f"kind must be 'tx' or 'rx', got {kind!r}")
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        claim = (kind, start, end, label)
        claims = self._claims
        turnaround = self.turnaround
        index = len(claims)
        while index:
            index -= 1
            other = claims[index]
            # Claims are appended in loosely increasing time order; stop
            # scanning once we are past any possible conflict window.
            if other[2] + turnaround <= start:
                break
            self._audit_pair(other, claim)
        claims.append(claim)
        return claim

    def _audit_pair(self, first: _Claim, second: _Claim) -> None:
        first_kind, first_start, first_end, _ = first
        second_kind, second_start, second_end, _ = second
        if spans_overlap(first_start, first_end, second_start, second_end):
            if first_kind == second_kind == RX:
                return  # hearing two broadcasts at once is fine
            self.violations.append(RadioViolation(
                RadioClaim._make(first), RadioClaim._make(second),
                "transmit/receive overlap"))
            return
        if first_kind != second_kind:
            gap = max(second_start - first_end, first_start - second_end)
            if gap < self.turnaround - 1e-9:
                self.violations.append(RadioViolation(
                    RadioClaim._make(first), RadioClaim._make(second),
                    f"turnaround gap {gap * 1000:.1f} ms < "
                    f"{self.turnaround * 1000:.0f} ms"))

    def prune(self, before: float) -> None:
        """Drop claims that ended before ``before`` (memory bound)."""
        horizon = before - self.turnaround
        self._claims = [claim for claim in self._claims
                        if claim[2] >= horizon]

    @property
    def claim_count(self) -> int:
        return len(self._claims)

    def tx_busy_until(self) -> float:
        """End of the latest scheduled transmission (0.0 if none).

        Handoff uses this: a subscriber whose final uplink slot spills
        past the cycle boundary is still on the air when it re-tunes,
        and must not start listening in the new cell until the
        transmission (plus turnaround) has cleared.
        """
        return max((end for kind, _start, end, _label in self._claims
                    if kind == TX), default=0.0)

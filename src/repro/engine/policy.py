"""Execution policy: per-point timeouts, retries, fail-fast.

A :class:`RunPolicy` tells the engine how to treat slow, flaky, and
crashed points.  ``repro sweep`` and ``python -m repro.experiments``
set its knobs from their flags:

========================  =====================
knob                      CLI flag
========================  =====================
``timeout_s``             ``--timeout S``
``retries``               ``--retries N``
``fail_fast``             ``--fail-fast``
========================  =====================

The experiments CLI installs its policy as the process default
(:func:`set_default_policy`), so every runner's ``execute`` call sees
it without a ``policy`` argument.

Points that exhaust their attempts become structured
:class:`PointFailure` records collected into the run's failure report
(partial-result salvage); under ``fail_fast`` the first exhausted point
raises :class:`PointFailureError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: ``PointFailure.kind`` values.
FAILURE_EXCEPTION = "exception"
FAILURE_TIMEOUT = "timeout"
FAILURE_CRASH = "worker-crash"


@dataclass(frozen=True)
class RunPolicy:
    """How one ``execute``/``map`` call treats failing points."""

    #: Per-point wall-clock limit in seconds, enforced by the parallel
    #: executor (a hung worker is killed and the point retried).  The
    #: serial executor cannot preempt an in-process point and therefore
    #: ignores this knob.  ``None`` = unlimited.
    timeout_s: Optional[float] = None
    #: Extra attempts granted after a point raises or times out.
    retries: int = 0
    #: Base of the exponential retry backoff, in seconds.
    backoff_s: float = 0.05
    #: Ceiling of the exponential backoff.
    backoff_cap_s: float = 2.0
    #: Raise :class:`PointFailureError` on the first exhausted point
    #: instead of salvaging partial results.
    fail_fast: bool = False

    @property
    def attempts(self) -> int:
        """Total attempt budget per point."""
        return max(1, int(self.retries) + 1)

    def backoff(self, failed_attempts: int) -> float:
        """Sleep before the next attempt after ``failed_attempts``."""
        if self.backoff_s <= 0:
            return 0.0
        return min(self.backoff_cap_s,
                   self.backoff_s * (2 ** (failed_attempts - 1)))


@dataclass
class PointFailure:
    """One point that exhausted its attempts.

    Collected into :class:`~repro.engine.spec.RunResult.failures` (and
    engine telemetry) instead of poisoning the reducer; ``index``,
    ``key`` and ``label`` are filled in by ``execute`` so the report
    identifies the grid coordinate, not just the task position.
    """

    index: int
    kind: str
    error: str
    message: str
    attempts: int
    elapsed_s: float
    key: Optional[str] = None
    label: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "label": dict(self.label),
            "kind": self.kind,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 3),
            "key": self.key,
        }

    def format(self) -> str:
        where = ", ".join(f"{name}={value}"
                          for name, value in self.label.items())
        where = where or f"point {self.index}"
        return (f"{where}: {self.kind} after {self.attempts} attempt(s)"
                f" -- {self.error}: {self.message}")


class PointFailureError(RuntimeError):
    """Raised under ``fail_fast`` for the first exhausted point."""

    def __init__(self, failure: PointFailure):
        super().__init__(failure.format())
        self.failure = failure


# -- resolution: explicit policy > CLI default > RunPolicy() ----------


#: Process-wide default installed by CLIs (``set_default_policy``).
_DEFAULT_POLICY: Optional[RunPolicy] = None


def set_default_policy(policy: Optional[RunPolicy]) -> None:
    """Install (or clear, with ``None``) the process default policy.

    Lets a CLI apply ``--timeout/--retries/--fail-fast`` to every
    ``execute`` call without changing experiment signatures.
    """
    global _DEFAULT_POLICY
    _DEFAULT_POLICY = policy


def resolve_policy(policy: Optional[RunPolicy] = None) -> RunPolicy:
    """The explicit ``policy``, else the CLI-installed default, else
    ``RunPolicy()``."""
    return policy or _DEFAULT_POLICY or RunPolicy()

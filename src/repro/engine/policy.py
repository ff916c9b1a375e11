"""Execution policy: per-point timeouts, retries, fail-fast, resume.

A :class:`RunPolicy` tells the engine how to treat slow, flaky, and
crashed points.  Every knob has a ``REPRO_*`` environment mirror so
long-running sweeps can be hardened without threading arguments through
every experiment signature:

========================  =====================  =======================
knob                      CLI flag               environment variable
========================  =====================  =======================
``timeout_s``             ``--timeout S``        ``REPRO_TIMEOUT``
``retries``               ``--retries N``        ``REPRO_RETRIES``
``backoff_s``             (none)                 ``REPRO_BACKOFF``
``fail_fast``             ``--fail-fast``        ``REPRO_FAIL_FAST``
``resume``                ``--resume``           ``REPRO_RESUME``
========================  =====================  =======================

Points that exhaust their attempts become structured
:class:`PointFailure` records collected into the run's failure report
(partial-result salvage); under ``fail_fast`` the first exhausted point
raises :class:`PointFailureError` instead.
"""

from __future__ import annotations

import dataclasses
import os
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
    #: Replay and keep writing the per-spec checkpoint journal
    #: (:mod:`repro.engine.checkpoint`).
    resume: bool = False

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


# -- resolution: explicit args > policy object > env > defaults ----------


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in (
        "1", "true", "yes", "on")


def policy_from_env() -> RunPolicy:
    """The policy implied by the ``REPRO_*`` environment mirrors."""
    return RunPolicy(
        timeout_s=_env_float("REPRO_TIMEOUT"),
        retries=_env_int("REPRO_RETRIES") or 0,
        backoff_s=(_env_float("REPRO_BACKOFF")
                   if _env_float("REPRO_BACKOFF") is not None else 0.05),
        fail_fast=_env_flag("REPRO_FAIL_FAST"),
        resume=_env_flag("REPRO_RESUME"))


#: Process-wide default installed by CLIs (``set_default_policy``).
_DEFAULT_POLICY: Optional[RunPolicy] = None


def set_default_policy(policy: Optional[RunPolicy]) -> None:
    """Install (or clear, with ``None``) the process default policy.

    Lets a CLI apply ``--timeout/--retries/--resume/--fail-fast`` to
    every ``execute`` call without changing experiment signatures.
    """
    global _DEFAULT_POLICY
    _DEFAULT_POLICY = policy


def resolve_policy(policy: Optional[RunPolicy] = None,
                   **overrides: Any) -> RunPolicy:
    """Merge an explicit policy, keyword overrides, and the env.

    ``overrides`` accepts any :class:`RunPolicy` field; ``None`` values
    are ignored.  Base precedence: explicit ``policy`` argument, then
    the CLI-installed default, then the ``REPRO_*`` environment.
    """
    base = policy or _DEFAULT_POLICY or policy_from_env()
    changes = {name: value for name, value in overrides.items()
               if value is not None}
    return dataclasses.replace(base, **changes) if changes else base

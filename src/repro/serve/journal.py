"""Cycle-granular service journals: crash-safe state for ``repro serve``.

A live cell's state is a pure function of its :class:`CellConfig`, its
seed, and the ordered control operations applied at cycle boundaries.
The service journal therefore records exactly that function's inputs,
append-only, one JSON line per record:

``header``
    Written once at creation: schema tag, the cell config (canonical
    form + content digest) and the serve parameters.  Resume refuses a
    journal whose config digest differs from the service's own.
``control``
    One applied control operation (load dial, join, leave, fault
    injection, degraded-mode transition), stamped with the cycle it was
    applied *before*.  Replaying the ops at the same cycles rebuilds
    bit-identical simulator state.
``snapshot``
    Periodic (default: every cycle) verification record: the cycle
    count plus the simulation's cumulative counters.  Resume replays to
    the last snapshot and asserts exact counter equality -- a
    determinism audit, and the guarantee that exported counters stay
    monotonic across a SIGKILL/restart boundary.
``event``
    Operational breadcrumbs (resume, watchdog restart, clean shutdown);
    never replayed.

Durability, locking and the commit rule are the shared
:class:`~repro.engine.checkpoint.AppendLog`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.checkpoint import (
    AppendLog,
    JournalLockedError,
    journal_path,
)

__all__ = ["SERVE_JOURNAL_SCHEMA", "JournalLockedError",
           "ServiceJournal", "ServiceLog"]

SERVE_JOURNAL_SCHEMA = "repro/serve-journal@1"


@dataclass
class ServiceLog:
    """Everything :meth:`ServiceJournal.load` recovers from disk."""

    header: Optional[Dict[str, Any]] = None
    #: Applied control ops in append order; each carries ``cycle``.
    ops: List[Dict[str, Any]] = field(default_factory=list)
    #: The last snapshot record (None when killed before the first).
    snapshot: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: True when the journal ends in a clean-shutdown event.
    clean_shutdown: bool = False

    @property
    def snapshot_cycle(self) -> int:
        return int(self.snapshot["cycle"]) if self.snapshot else 0

    @property
    def resume_cycle(self) -> int:
        """Last cycle the journal fully determines the state at.

        Ops land in the journal *before* their cycle is simulated, so
        an op stamped past the last snapshot still pins the state at
        its own cycle boundary -- replay can safely run that far.
        """
        last_op = max((int(op["cycle"]) for op in self.ops), default=0)
        return max(self.snapshot_cycle, last_op)


class ServiceJournal(AppendLog):
    """Append-only journal for one supervised cell."""

    def __init__(self, name: str, root: Optional[str] = None):
        super().__init__(journal_path(root, name, ".serve.jsonl"))

    def write_header(self, config_digest: str,
                     config: Any, serve: Any) -> None:
        self.append_record({"kind": "header",
                            "schema": SERVE_JOURNAL_SCHEMA,
                            "config_sha256": config_digest,
                            "config": config,
                            "serve": serve})

    def append_control(self, cycle: int, op: Dict[str, Any]) -> None:
        self.append_record({"kind": "control", "cycle": cycle, "op": op})

    def append_snapshot(self, cycle: int,
                        counters: Dict[str, Any],
                        serve_counters: Dict[str, Any]) -> None:
        self.append_record({"kind": "snapshot", "cycle": cycle,
                            "counters": counters,
                            "serve": serve_counters})

    def append_event(self, event: str, cycle: int,
                     **fields: Any) -> None:
        record: Dict[str, Any] = {"kind": "event", "event": event,
                                  "cycle": cycle}
        record.update(fields)
        self.append_record(record)

    def load(self) -> ServiceLog:
        """Everything the committed records determine."""
        log = ServiceLog()
        for record in self.records():
            kind = record.get("kind")
            if kind == "header":
                log.header = record
            elif kind == "control":
                log.ops.append(record)
            elif kind == "snapshot":
                log.snapshot = record
            elif kind == "event":
                log.events.append(record)
                log.clean_shutdown = record.get("event") == "shutdown"
        return log

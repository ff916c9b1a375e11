"""The city journal: per-epoch checkpoints so a killed run resumes.

One JSONL file per (config digest) under the engine's journal root
(``REPRO_JOURNAL_DIR`` or ``<cache>/journal``), an
:class:`~repro.engine.checkpoint.AppendLog` that owns durability,
locking and the commit rule.  The first line is a header identifying
the schema and the exact config; each subsequent line is one completed
epoch's full set of shard reports (including their outbound
envelopes), fsynced as the barrier commits.  A resumed run replays the
journaled epochs through the *same* merge code the live run uses,
re-deriving digests and the directory -- and verifies the recomputed
digests against the journaled ones, so a corrupted or mismatched
journal fails loudly instead of silently diverging.  An epoch whose
line was torn by a kill never committed; the resumed run recomputes
it.  The journal is deleted when the run finishes cleanly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.engine.checkpoint import AppendLog, journal_path

SCHEMA = "repro/city-journal@1"


class CityJournal(AppendLog):
    """Crash-safe epoch checkpoint log for one city run."""

    def __init__(self, config_digest: str,
                 root: Optional[str] = None):
        super().__init__(journal_path(
            root, f"city-{config_digest[:16]}", ".jsonl"))
        self.config_digest = config_digest

    def load(self) -> List[Dict[str, Any]]:
        """Committed epoch records, in epoch order.

        Returns ``[]`` when there is no usable journal.  Records must be
        consecutive from epoch 0 and carry the matching config digest;
        anything else (a different config hashed to the same truncated
        filename, an out-of-order tail) is discarded rather than
        resumed.
        """
        records = list(self.records())
        if not records:
            return []
        header = records[0]
        if (header.get("schema") != SCHEMA
                or header.get("config_sha256") != self.config_digest):
            return []
        epochs = records[1:]
        for index, record in enumerate(epochs):
            if record.get("epoch") != index:
                return epochs[:index]
        return epochs

    def write_header(self) -> None:
        self.append_record({"schema": SCHEMA,
                            "config_sha256": self.config_digest})

    def append_epoch(self, epoch: int,
                     reports: List[Dict[str, Any]],
                     epoch_digest: str) -> None:
        self.append_record({"epoch": epoch, "epoch_digest": epoch_digest,
                            "reports": reports})
        self.sync()

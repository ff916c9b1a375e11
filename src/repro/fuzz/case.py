"""The unit of fuzzing: one reproducible adversarial scenario.

A :class:`FuzzCase` is a frozen dataclass of primitives and tuples, so
it is hashable, picklable by value, and canonicalizes cleanly through
:func:`repro.engine.hashing.canonical` -- a case can be an engine
``Point`` config unchanged.  The JSON round trip (:meth:`to_json` /
:meth:`from_json`) is what corpus entries and ``repro fuzz replay``
are built on.

Fault schedules are carried as *grammar text* (the
``repro.faults.schedule`` syntax), not spec tuples: the fuzzer
exercises the same parser users type schedules into, and a corpus entry
stays human-readable and hand-editable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

from repro.core.config import CellConfig

CASE_SCHEMA = "repro/fuzz-case@1"

MODE_CELL = "cell"
MODE_SERVE = "serve"

MODES = (MODE_CELL, MODE_SERVE)

#: CellConfig fields a case may override.  A closed set: corpus entries
#: loaded from disk are validated against it, so a stale or hostile
#: entry cannot smuggle arbitrary constructor keywords.
CONFIG_FIELDS = frozenset({
    "num_data_users", "num_gps_users", "load_index", "message_size",
    "forward_load_index", "error_model", "outage_loss",
    "symbol_error_rate", "registration_mode", "registration_rate",
    "registration_persistence", "use_second_cf",
    "dynamic_slot_adjustment", "data_in_contention",
    "liveness_lease_cycles", "eviction_detect_cycles",
    "eviction_detect_attempts", "eviction_backoff_jitter_cycles",
    "uid_allocation", "cycles", "warmup_cycles", "seed",
})

#: Control ops a serve-mode case may enqueue (mirrors the validated
#: ``CellService.enqueue_*`` surface).
OP_KINDS = ("load", "join", "leave", "faults")


@dataclass(frozen=True)
class FuzzCase:
    """One seed-determined scenario, ready to run and to serialize."""

    campaign_seed: int
    index: int
    mode: str = MODE_CELL
    #: Sorted ``(field, value)`` CellConfig overrides.
    config_items: Tuple[Tuple[str, Any], ...] = ()
    #: Scheduled faults in the ``parse_faults`` grammar ('' = none).
    faults_text: str = ""
    #: Serve-mode control ops as ``(cycle, kind, argument)`` -- the
    #: argument is a string (load factor, service class, subscriber
    #: name, or a relative fault-schedule fragment).
    ops: Tuple[Tuple[int, str, str], ...] = ()
    #: Recorded, never read.  The generator still sets it on every
    #: eighth cell case only because verdicts embed :meth:`to_json`
    #: and the checked-in fuzz digests hash those verdicts.
    differential: bool = False
    #: Free-text provenance (generator notes, shrink history).
    note: str = ""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown fuzz mode {self.mode!r}")
        for name, _ in self.config_items:
            if name not in CONFIG_FIELDS:
                raise ValueError(
                    f"config override {name!r} is not fuzzable")
        for cycle, kind, _ in self.ops:
            if kind not in OP_KINDS:
                raise ValueError(f"unknown control op {kind!r}")
            if int(cycle) < 0:
                raise ValueError("op cycle must be non-negative")

    # -- accessors ---------------------------------------------------------

    @property
    def case_id(self) -> str:
        return f"{self.campaign_seed}-{self.index}"

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self.config_items)

    def setting(self, name: str) -> Any:
        """The value of config field ``name`` this case runs: its
        override, else :class:`~repro.core.config.CellConfig`'s
        default."""
        return self.config.get(name, getattr(CellConfig, name))

    @property
    def cycles(self) -> int:
        return int(self.config.get("cycles", CellConfig.cycles))

    @property
    def work(self) -> int:
        """Subscriber-cycles (one subscriber simulated for one cycle):
        the cost the engine's pool ranks points by."""
        return self.cycles * (int(self.setting("num_data_users"))
                              + int(self.setting("num_gps_users")))

    def cell_config(self) -> CellConfig:
        """The :class:`~repro.core.config.CellConfig` this case runs.

        The invariant monitor is always on -- it is the first oracle.
        """
        from repro.faults.schedule import parse_faults

        return CellConfig(check_invariants=True,
                          faults=parse_faults(self.faults_text),
                          **self.config)

    def with_config(self, **overrides: Any) -> "FuzzCase":
        """A copy with config fields replaced (shrinker building block)."""
        merged = self.config
        merged.update(overrides)
        return replace(self, config_items=tuple(sorted(merged.items())))

    # -- JSON round trip ---------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": CASE_SCHEMA,
            "campaign_seed": self.campaign_seed,
            "index": self.index,
            "mode": self.mode,
            "config": self.config,
            "faults": self.faults_text,
            "ops": [[cycle, kind, argument]
                    for cycle, kind, argument in self.ops],
            "differential": self.differential,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FuzzCase":
        schema = data.get("schema")
        if schema != CASE_SCHEMA:
            raise ValueError(
                f"expected a {CASE_SCHEMA} document, got {schema!r}")
        return cls(
            campaign_seed=int(data["campaign_seed"]),
            index=int(data["index"]),
            mode=str(data["mode"]),
            config_items=tuple(sorted(
                (str(name), value)
                for name, value in dict(data["config"]).items())),
            faults_text=str(data.get("faults", "")),
            ops=tuple((int(cycle), str(kind), str(argument))
                      for cycle, kind, argument in data.get("ops", [])),
            differential=bool(data.get("differential", False)),
            note=str(data.get("note", "")))

"""The maclint rule catalogue.

Every rule guards one of the repository's headline guarantees:

* **DET** -- bit-identical results for serial vs ``--jobs N`` execution
  and across re-runs.  All randomness must flow through the named,
  seeded streams of :class:`repro.sim.rng.RandomStreams`; wall-clock
  reads and set-iteration order must never influence protocol
  decisions.
* **PAR** -- process-pool safety.  Worker tasks are re-imported in
  fresh interpreters, so mutable module-level state silently diverges
  between workers, and closures captured into
  :class:`repro.engine.spec.Point` tasks must be picklable by
  reference.
* **PROTO** -- the paper's physical-layer constants (Table 1 /
  Sections 2.2, 3.3, 3.4) live in :mod:`repro.phy.timing` and nowhere
  else.  A re-typed magic literal is a fork of the protocol spec.
* **HOT** -- the per-symbol / per-event simulation paths must not do
  console or file I/O; that belongs to the CLI and render layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Rule:
    """One maclint rule."""

    id: str
    family: str
    name: str
    summary: str
    rationale: str


_RULE_LIST: Tuple[Rule, ...] = (
    Rule(
        id="DET001",
        family="DET",
        name="module-global-random",
        summary="call to a module-global random.* function",
        rationale="Draws from the shared module-global generator are "
                  "ordered by call arrival, so any concurrency or "
                  "import-order change perturbs every later draw. Use "
                  "an injected repro.sim.rng stream instead.",
    ),
    Rule(
        id="DET002",
        family="DET",
        name="wall-clock-read",
        summary="wall-clock read (time.time/perf_counter/datetime.now) "
                "in simulation code",
        rationale="Simulation time is sim.now; reading the host clock "
                  "makes results machine- and load-dependent.",
    ),
    Rule(
        id="DET003",
        family="DET",
        name="direct-rng-construction",
        summary="direct random.Random construction outside sim/rng.py",
        rationale="Ad-hoc Random instances fork the seeding scheme; "
                  "derive streams from repro.sim.rng.RandomStreams so "
                  "one root seed reproduces the whole run and streams "
                  "stay independent across components.",
    ),
    Rule(
        id="DET004",
        family="DET",
        name="set-iteration",
        summary="iteration over a set feeding simulation logic",
        rationale="Set iteration order depends on insertion history and "
                  "PYTHONHASHSEED; scheduling or registration decisions "
                  "driven by it are not reproducible. Iterate a sorted() "
                  "copy or an order-preserving container.",
    ),
    Rule(
        id="PAR001",
        family="PAR",
        name="global-statement",
        summary="function mutates module state via `global`",
        rationale="Process-pool workers each hold a private copy of "
                  "module globals; mutations are invisible to the "
                  "parent and to other workers, so results depend on "
                  "which process ran the point.",
    ),
    Rule(
        id="PAR002",
        family="PAR",
        name="module-mutable-state",
        summary="mutable module-level container bound to a "
                "non-constant name",
        rationale="Module-level lists/dicts/sets are per-process state; "
                  "engine tasks that read or write them behave "
                  "differently under --jobs N than serially. Pass state "
                  "through the task's config instead.",
    ),
    Rule(
        id="PAR003",
        family="PAR",
        name="unpicklable-task",
        summary="lambda or nested function used as a Point task "
                "function",
        rationale="Point.fn must be picklable by reference "
                  "(module-level) to cross the process boundary; "
                  "lambdas and closures fail to reach a pool worker "
                  "or silently capture parent state.",
    ),
    Rule(
        id="PAR004",
        family="PAR",
        name="pool-reachable-module-state",
        summary="module-level state mutated inside a function "
                "reachable from a process-pool task",
        rationale="The v2 call graph traces every function reachable "
                  "from a Point task (engine sweeps, fuzz cases), the "
                  "worker pool's loop and point runner, or a shard "
                  "worker. Mutating module-level containers "
                  "there writes to a per-worker copy: results come to "
                  "depend on which process ran which point. Pass "
                  "state through the task config or return it in the "
                  "task result.",
    ),
    Rule(
        id="PROTO001",
        family="PROTO",
        name="paper-constant-literal",
        summary="paper constant re-typed as a magic literal",
        rationale="The OSU-MAC physical-layer numbers are defined once "
                  "in repro.phy.timing and derived from first "
                  "principles; a re-typed literal can drift from the "
                  "spec without any test noticing.",
    ),
    Rule(
        id="HOT001",
        family="HOT",
        name="print-in-hot-path",
        summary="print() inside simulation/protocol code",
        rationale="The sim/core/phy/protocols/traffic layers run per "
                  "event and per symbol; console I/O there perturbs "
                  "timings and floods parallel sweeps. Reporting "
                  "belongs to the CLI/render layers or the obs "
                  "registry.",
    ),
    Rule(
        id="HOT002",
        family="HOT",
        name="io-in-hot-loop",
        summary="open() inside a loop in simulation/protocol code",
        rationale="File I/O inside per-event loops dominates the hot "
                  "path and breaks the non-perturbation guarantee of "
                  "the observability layer; buffer and write once "
                  "outside the loop, from the CLI layer.",
    ),
    Rule(
        id="FLOW101",
        family="FLOW",
        name="rng-taint-into-core",
        summary="value derived from an unseeded random source crosses "
                "a call boundary into deterministic core code",
        rationale="Every random-like draw must trace to a named "
                  "stream of repro.sim.rng.RandomStreams, or one root "
                  "seed no longer reproduces the run. The taint pass "
                  "follows draws through helper functions the "
                  "per-module DET rules cannot see across.",
    ),
    Rule(
        id="FLOW102",
        family="FLOW",
        name="clock-taint-at-sink",
        summary="wall-clock-derived value reaches a journal record, "
                "digest input, envelope field, or event time",
        rationale="Replay-exact serve resume and digest-stable epochs "
                  "require journaled and hashed state to be a pure "
                  "function of (seed, inputs). A host-clock value "
                  "reaching such a sink differs on every run. "
                  "Wall-clock reads that never reach a sink "
                  "(heartbeats, pacing) are fine.",
    ),
    Rule(
        id="FLOW103",
        family="FLOW",
        name="order-taint-at-sink",
        summary="dict/set-iteration-ordered value reaches a journal "
                "record, digest input, or envelope field",
        rationale="Dict insertion order is not canonical across pool "
                  "workers, shard merges, or replay, and set order "
                  "depends on PYTHONHASHSEED. Emission-order "
                  "contracts (the shard coordinator's canonical "
                  "ordering, journal replay, digests) require "
                  "sorted() or canonical_order() first.",
    ),
)

RULES: Dict[str, Rule] = {rule.id: rule for rule in _RULE_LIST}

FAMILIES: Tuple[str, ...] = ("DET", "PAR", "PROTO", "HOT", "FLOW")


#: PROTO001 value table: (value, allowed literal types, timing symbol,
#: core_only).  ``core_only`` entries are ambiguous enough (37, 4.0 ...)
#: that they are only flagged inside the protocol-core packages where a
#: bare timing-flavoured number is always suspicious; the distinctive
#: values are flagged across the whole tree.
PAPER_CONSTANTS: Tuple[Tuple[object, Tuple[type, ...], str, bool], ...] = (
    (3200, (int, float), "FORWARD_SYMBOL_RATE", False),
    (2400, (int, float), "REVERSE_SYMBOL_RATE", False),
    (12800, (int, float), "TARGET_CYCLE_SYMBOLS_FORWARD", False),
    (0.30125, (float,), "REVERSE_SHIFT", False),
    (3.984375, (float,), "CYCLE_LENGTH", False),
    (0.09375, (float,), "FORWARD_SLOT_TIME", False),
    (0.40375, (float,), "DATA_SLOT_TIME", False),
    (0.0875, (float,), "GPS_SLOT_TIME", False),
    (0.054375, (float,), "REVERSE_TAIL_GUARD", False),
    (0.02, (float,), "MS_TURNAROUND_TIME", True),
    (37, (int,), "NUM_FORWARD_DATA_SLOTS", True),
    (4.0, (float,), "GPS_DEADLINE", True),
    (60.0, (float,), "GPS_CHECKING_DELAY", True),
)

"""Automatic reduction of failing cases to minimal reproducers.

Greedy delta-debugging over the structured case, not its bytes: drop
fault entries one at a time, drop control ops, remove subscribers,
shorten the run, calm the load, simplify the channel.  A candidate is
accepted when it still fails into the *same bucket* (same oracle, same
normalized fingerprint) -- shrinking must preserve the failure mode,
not merely some failure.

Everything is deterministic: transformations are tried in a fixed
order, each acceptance restarts the pass list, and the evaluation
budget bounds total work.  Candidates that fail to build or crash the
runner are simply rejected (the bug might *be* load-bearing on the
dropped element).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional

from repro.faults.schedule import format_faults, parse_faults
from repro.fuzz.case import FuzzCase
from repro.fuzz.runner import run_fuzz_case

Verdict = Dict[str, object]
Evaluator = Callable[[FuzzCase], Verdict]


@dataclass
class ShrinkResult:
    """The minimal case found, plus accounting for the report."""

    case: FuzzCase
    bucket: str
    evals: int
    accepted: int

    def to_json(self) -> Dict[str, object]:
        return {"case": self.case.to_json(), "bucket": self.bucket,
                "evals": self.evals, "accepted": self.accepted}


def shrink_case(case: FuzzCase, bucket: str,
                evaluate: Evaluator = run_fuzz_case,
                max_evals: int = 80) -> ShrinkResult:
    """Reduce ``case`` while it keeps failing into ``bucket``."""
    evals = 0
    accepted = 0

    def still_fails(candidate: FuzzCase) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        try:
            verdict = evaluate(candidate)
        except Exception:
            return False  # invalid or crashing candidate: keep parent
        return verdict.get("bucket") == bucket

    current = case
    progress = True
    while progress and evals < max_evals:
        progress = False
        for candidate in _candidates(current):
            if evals >= max_evals:
                break
            if still_fails(candidate):
                current = candidate
                accepted += 1
                progress = True
                break  # restart the pass list from the smaller case
    final = replace(
        current,
        note=(f"shrunk from case {case.case_id} "
              f"({accepted} reductions, {evals} evals)"))
    return ShrinkResult(case=final, bucket=bucket, evals=evals,
                        accepted=accepted)


def _candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Smaller cases, most aggressive first (fixed, deterministic)."""
    # 1. Drop whole fault entries (later entries first: the triggering
    #    event is usually early, the noise late).
    faults = list(parse_faults(case.faults_text))
    for index in reversed(range(len(faults))):
        remaining = faults[:index] + faults[index + 1:]
        yield replace(case, faults_text=format_faults(remaining))

    # 2. Drop control ops.
    for index in reversed(range(len(case.ops))):
        remaining_ops = case.ops[:index] + case.ops[index + 1:]
        yield replace(case, ops=remaining_ops)

    # 3. Shed population (halve, then decrement).
    for field, floor in (("num_data_users", 1), ("num_gps_users", 0)):
        count = int(case.setting(field))
        for smaller in _shrink_int(count, floor):
            yield case.with_config(**{field: smaller})

    # 4. Shorten the run (halve toward a floor that keeps the config
    #    valid and leaves the oracles a little tail).
    cycles = case.cycles
    warmup = int(case.setting("warmup_cycles"))
    floor = warmup + 20
    for smaller in _shrink_int(cycles, floor):
        yield case.with_config(cycles=smaller)
    for smaller in _shrink_int(warmup, 1):
        yield case.with_config(warmup_cycles=smaller)

    # 5. Calm the workload and the channel.
    load = float(case.setting("load_index"))
    if load > 0.15:
        yield case.with_config(load_index=round(load / 2, 3))
    if float(case.setting("forward_load_index")) > 0:
        yield case.with_config(forward_load_index=0.0)
    if case.setting("error_model") != "perfect":
        yield case.with_config(error_model="perfect")
    if case.setting("registration_mode") != "simultaneous":
        yield case.with_config(registration_mode="simultaneous")

    # 6. Halve fade/storm windows (shorter disturbances).
    for index, spec in enumerate(faults):
        if spec.duration_cycles > 1:
            trimmed = list(faults)
            trimmed[index] = replace(
                spec, duration_cycles=max(1, spec.duration_cycles // 2))
            yield replace(case, faults_text=format_faults(trimmed))


def _shrink_int(value: int, floor: int) -> List[int]:
    """Candidate reductions for an integer: halve, then step down."""
    out: List[int] = []
    half = (value + floor) // 2
    if floor <= half < value:
        out.append(half)
    if value - 1 >= floor and (value - 1) not in out:
        out.append(value - 1)
    return out


def first_failure(verdicts: List[Optional[Verdict]]
                  ) -> Dict[str, Verdict]:
    """Map each bucket to the first (lowest-index) failing verdict."""
    by_bucket: Dict[str, Verdict] = {}
    for verdict in verdicts:
        if not verdict or verdict.get("ok"):
            continue
        bucket = verdict.get("bucket")
        if isinstance(bucket, str) and bucket not in by_bucket:
            by_bucket[bucket] = verdict
    return by_bucket

"""Campaign orchestration: generate, execute, bucket, shrink, report.

A campaign is one :class:`~repro.engine.spec.RunSpec` whose points are
fuzz cases, executed through the ordinary run engine -- so ``--jobs``
fans cases across the process pool, the :class:`RunPolicy` timeout
turns a hung case into a structured failure, and a crashed worker is
salvaged, not fatal.  Engine-level failures become ``harness:*``
buckets alongside the oracle buckets: "the harness could not even run
this case" is itself a reportable finding.

The report's ``digest`` is a content hash over every case's bucket
assignment; two campaigns with the same seed and budget must produce
identical digests regardless of job count -- the bit-reproducibility
contract ``repro fuzz`` and the test suite assert.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine import Point, RunPolicy, RunSpec, execute
from repro.fuzz import corpus
from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import CampaignGenerator
from repro.fuzz.runner import run_fuzz_case
from repro.fuzz.shrink import first_failure, shrink_case

REPORT_SCHEMA = "repro/fuzz-report@1"

#: Wall-clock ceiling per case under the parallel executor; generous
#: (a typical case runs well under a second) so only a genuine hang or
#: livelock in the simulator trips it.
DEFAULT_TIMEOUT_S = 120.0


@dataclass
class CampaignReport:
    """Everything one campaign produced."""

    campaign_seed: int
    budget: int
    jobs: int
    ok: int
    buckets: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    digest: str = ""
    shrink_evals: int = 0

    @property
    def failed(self) -> int:
        return sum(info["count"] for info in self.buckets.values())

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "campaign_seed": self.campaign_seed,
            "budget": self.budget,
            "jobs": self.jobs,
            "ok": self.ok,
            "failed": self.failed,
            "digest": self.digest,
            "shrink_evals": self.shrink_evals,
            "buckets": {bucket: dict(info)
                        for bucket, info in sorted(self.buckets.items())},
        }

    def format(self) -> str:
        lines = [f"campaign seed {self.campaign_seed}: "
                 f"{self.ok}/{self.budget} clean, "
                 f"{len(self.buckets)} bucket(s), digest {self.digest}"]
        for bucket, info in sorted(self.buckets.items()):
            lines.append(
                f"  [{corpus.bucket_id(bucket)}] {bucket} -- "
                f"{info['count']} case(s), first at index "
                f"{info['first_index']}")
            reproducer = info.get("reproducer")
            if reproducer:
                lines.append(
                    f"    minimal: {json.dumps(reproducer['config'])} "
                    f"faults={reproducer['faults']!r} "
                    f"ops={reproducer['ops']!r}")
        return "\n".join(lines)


def run_campaign(campaign_seed: int, budget: int,
                 jobs: Optional[int] = None,
                 overrides: Optional[Dict[str, Any]] = None,
                 serve_fraction: float = 0.2,
                 shrink: bool = True,
                 shrink_evals: int = 80,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 out_dir: Optional[str] = None) -> CampaignReport:
    """Run one full campaign; optionally write report + reproducers."""
    generator = CampaignGenerator(campaign_seed, overrides=overrides,
                                  serve_fraction=serve_fraction)
    cases = generator.cases(budget)
    spec = RunSpec(
        name=f"fuzz-{campaign_seed}",
        points=tuple(Point(fn=run_fuzz_case, config=case,
                           label={"index": case.index,
                                  "mode": case.mode})
                     for case in cases))
    # Cache off: a fuzz verdict must come from a fresh execution (a
    # hang or crash is a finding only when the case really runs), and
    # stale cached verdicts would mask regressions.
    result = execute(spec, jobs=jobs, cache=False,
                     policy=RunPolicy(timeout_s=timeout_s, retries=0))

    verdicts: List[Optional[Dict[str, Any]]] = list(result.values)
    report = CampaignReport(campaign_seed=int(campaign_seed),
                            budget=budget, jobs=result.stats.jobs,
                            ok=0)

    # Engine salvage -> harness buckets (hang, crash, exception).
    for failure in result.failures:
        bucket = f"harness:{failure.kind}"
        info = report.buckets.setdefault(bucket, {
            "count": 0, "first_index": failure.index,
            "example": {"error": failure.error,
                        "message": failure.message},
        })
        info["count"] += 1
        info["first_index"] = min(info["first_index"], failure.index)
        info.setdefault(
            "first_case", cases[failure.index].to_json())

    assignments: List[Any] = []
    for index, verdict in enumerate(verdicts):
        if verdict is None:
            assignments.append("harness")
            continue
        if verdict["ok"]:
            report.ok += 1
            assignments.append("ok")
            continue
        bucket = verdict["bucket"]
        assignments.append(bucket)
        info = report.buckets.setdefault(bucket, {
            "count": 0, "first_index": index,
            "example": verdict["violations"][0],
        })
        info["count"] += 1
        if index < info["first_index"]:
            info["first_index"] = index
            info["example"] = verdict["violations"][0]

    if shrink:
        for bucket, verdict in sorted(
                first_failure(verdicts).items()):
            failing = FuzzCase.from_json(verdict["case"])
            shrunk = shrink_case(failing, bucket,
                                 max_evals=shrink_evals)
            report.shrink_evals += shrunk.evals
            report.buckets[bucket]["reproducer"] = \
                shrunk.case.to_json()
            report.buckets[bucket]["shrink"] = {
                "evals": shrunk.evals, "accepted": shrunk.accepted}

    report.digest = _digest(campaign_seed, assignments)
    if out_dir:
        _write_artifacts(out_dir, report)
    return report


def _digest(campaign_seed: int, assignments: List[Any]) -> str:
    blob = json.dumps([campaign_seed, assignments], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _write_artifacts(out_dir: str, report: CampaignReport) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    for bucket, info in sorted(report.buckets.items()):
        reproducer = info.get("reproducer")
        if not reproducer:
            continue
        entry = corpus.make_entry(
            FuzzCase.from_json(reproducer), corpus.EXPECT_FAIL,
            bucket=bucket,
            notes=f"auto-shrunk by campaign seed "
                  f"{report.campaign_seed}")
        corpus.write_entry(out_dir, entry)

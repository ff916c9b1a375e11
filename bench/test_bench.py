"""Self-test of the benchmark harness: ``python3 -m pytest bench/``.

One ``--smoke`` run (tiny inputs, one round, both passes) is shared by
the checks below; it takes well under 30 s.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from compare import main as compare_main
from compare import verdict
from layers import LAYERS
from run import too_wide
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _tree_state():
    """Tracked and ignored changes, minus bytecode caches."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return sorted(os.listdir(ROOT))
    status = subprocess.run(
        ["git", "status", "--porcelain", "--ignored"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.splitlines()
    return [line for line in status
            if "__pycache__" not in line and ".pytest_cache" not in line]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    record_path = tmp_path_factory.mktemp("bench") / "record.json"
    before = _tree_state()
    process = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--json", str(record_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    after = _tree_state()
    assert process.returncode == 0, process.stderr
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)
    return {"stdout": process.stdout, "record": record,
            "before": before, "after": after}


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def test_printed_metrics_are_declared(smoke, declared):
    names = {metric["name"]
             for metric in declared["end_to_end"] + declared["per_layer"]}
    final = json.loads(smoke["stdout"].strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 1
    for workload, metrics in final["metrics"].items():
        for name in metrics:
            assert NAME.match(name), name
            assert name in names, (workload, name)
    table = [line.split()[0] for line in smoke["stdout"].splitlines()
             if line.startswith("  ") and not line.startswith(
                 ("  attempted", "  FAILED", "  fuzz finding"))]
    assert table and set(table) <= names


def test_every_workload_reports_every_metric(smoke, declared):
    workloads = smoke["record"]["workloads"]
    assert set(workloads) == {"sweep", "city", "fuzz", "serve"}
    for workload, result in workloads.items():
        for metric in declared["end_to_end"]:
            assert metric["name"] in result["end_to_end"], workload
        for metric in declared["per_layer"]:
            assert metric["name"] in result["per_layer"], workload


def test_self_shares_sum_to_one(smoke):
    for workload, result in smoke["record"]["workloads"].items():
        total = sum(result["per_layer"][f"{layer}.self_share"]["value"]
                    for layer in LAYERS)
        assert abs(total - 1.0) <= 0.01, (workload, total)


def test_jobs_1_and_jobs_2_digests_agree(smoke):
    for workload, result in smoke["record"]["workloads"].items():
        digests = result["digests"]
        assert len(digests["1"]) == 1, workload
        if 2 in WORKLOADS[workload].job_counts:
            assert digests["1"] == digests["2"], workload
        else:
            assert set(digests) == {"1"}, workload


def test_serve_reports_its_one_throughput_under_both_names(smoke):
    samples = smoke["record"]["workloads"]["serve"]["samples"]
    assert samples["cell_cycles_per_s_j2"] == samples["cell_cycles_per_s"]


def test_tree_left_as_found(smoke):
    assert smoke["after"] == smoke["before"]
    assert not os.path.exists(os.path.join(ROOT, ".bench-tmp"))


def test_compare_gives_a_verdict_on_real_records(smoke, tmp_path, capsys):
    """A record marked noisy is named but still compared."""
    paths = []
    for noisy in (False, True):
        record = dict(smoke["record"], noisy=noisy,
                      too_wide=["sweep cell_cycles_per_s"] if noisy else [])
        paths.append(tmp_path / f"record-{noisy}.json")
        paths[-1].write_text(json.dumps(record), encoding="utf-8")
    assert compare_main([str(path) for path in paths * 2]) == 0
    out, err = capsys.readouterr()
    assert "noisy" in err
    assert out.startswith("2 pairs")
    rows = [line.split() for line in out.splitlines()
            if line.split()[:1] in (["sweep"], ["city"], ["fuzz"],
                                    ["serve"])]
    verdicts = [row for row in rows if row[-2:] == ["no", "change"]]
    assert len(verdicts) == 4 * 4


def test_noise_flag_follows_scaled_round_medians(declared):
    rounds = {metric["name"]: [100.0, 101.0, 99.0]
              for metric in declared["end_to_end"]}
    assert too_wide(rounds, declared) == []
    rounds["setup_s"] = [80.0, 100.0, 120.0]
    assert too_wide(rounds, declared) == []
    rounds["cell_cycles_per_s"] = [80.0, 100.0, 120.0]
    assert too_wide(rounds, declared) == ["cell_cycles_per_s"]


def test_compare_verdicts():
    parent = [100.0 + index % 3 for index in range(10)]
    assert verdict(parent, [value * 1.2 for value in parent], True, 0.1,
                   False)[0] == "improved"
    assert verdict(parent, [value * 0.8 for value in parent], True, 0.1,
                   False)[0] == "regressed"
    assert verdict(parent, list(parent), True, 0.1, False)[0] == \
        "no change"
    assert verdict(parent, list(parent), True, 0.1, True)[0] == \
        "regressed"
    wide = [50.0, 150.0] * 5
    assert verdict(wide, list(reversed(wide)), True, 0.1, False)[0] == \
        "unresolved"

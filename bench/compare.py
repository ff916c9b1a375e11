"""Compare benchmark records of a parent commit and a change.

Usage::

    python3 bench/compare.py PARENT1 CHANGE1 PARENT2 CHANGE2 ...

Arguments are ``run.py --json`` records in pairs, parent first; run the
pairs back to back and alternate which side runs first.  Every pair is
used.  Records marked noisy (the per-round medians of some scaled
end-to-end metric varied more than its bound within that one run) are
named, but not left out: one run on its own is not judged here, and
spread across the pairs makes a metric ``unresolved``.  For every
workload and end-to-end metric the report gives each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json, or the change failed
  more operations;
* ``improved`` -- at least ten pairs, the change won at least nine
  tenths of them, and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` -- either side's interquartile range is wider than the
  bound, unless every change run beats every parent run;
* ``no change`` -- otherwise.

It then lists the median per-layer self time of both sides for the
records that carry the traced pass.  Exits 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], higher: bool,
            bound: float, more_failures: bool) -> Tuple[str, float]:
    """The verdict and the change's share of won pairs."""
    sign = 1.0 if higher else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if more_failures or -gain > bound * abs(p_med):
        return "regressed", share
    if (len(parent) >= MIN_PAIRS and share >= WIN_SHARE
            and gain > p_q3 - p_q1):
        return "improved", share
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    separated = (min(change) > max(parent) if higher
                 else max(change) < min(parent))
    if spread > bound and not separated:
        return "unresolved", share
    return "no change", share


def _value(record: Dict[str, Any], workload: str, section: str,
           name: str) -> Optional[float]:
    stat = record["workloads"].get(workload, {}).get(section, {}).get(name)
    return None if stat is None else stat["value"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("records", nargs="+", metavar="RECORD")
    args = parser.parse_args(argv)
    if len(args.records) % 2:
        parser.error("records come in parent/change pairs")
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        declared = json.load(handle)
    loaded = []
    for path in args.records:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    for path, record in zip(args.records, loaded):
        if record.get("noisy"):
            print(f"note: {path} is marked noisy: "
                  f"{', '.join(record.get('too_wide', []))}",
                  file=sys.stderr)
    pairs = list(zip(loaded[::2], loaded[1::2]))

    workloads = sorted({name for parent, change in pairs
                        for name in parent["workloads"]
                        if name in change["workloads"]})
    regressed = False
    print(f"{len(pairs)} pairs")
    print(f"{'workload':<8} {'metric':<22} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>5}  verdict")
    for workload in workloads:
        failures = [(parent["workloads"][workload]["failed"],
                     change["workloads"][workload]["failed"])
                    for parent, change in pairs]
        more_failures = (sum(c for _, c in failures)
                         > sum(p for p, _ in failures))
        for metric in declared["end_to_end"]:
            name = metric["name"]
            values = [(_value(p, workload, "end_to_end", name),
                       _value(c, workload, "end_to_end", name))
                      for p, c in pairs]
            values = [(p, c) for p, c in values
                      if p is not None and c is not None]
            if not values:
                continue
            parent = [p for p, _ in values]
            change = [c for _, c in values]
            result, share = verdict(parent, change,
                                    metric["better"] == "higher",
                                    metric["bound"], more_failures)
            regressed |= result == "regressed"
            sides = []
            for side in (parent, change):
                q1, med, q3 = quartiles(side)
                sides.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:<8} {name:<22} {sides[0]:>32} "
                  f"{sides[1]:>32} {share:>5.0%}  {result}")

    print()
    print("self time per cell-cycle (us), median over the pairs")
    for workload in workloads:
        rows = []
        for metric in declared["per_layer"]:
            name = metric["name"]
            if not name.endswith(".self_us_per_cc"):
                continue
            values = [(_value(p, workload, "per_layer", name),
                       _value(c, workload, "per_layer", name))
                      for p, c in pairs]
            values = [(p, c) for p, c in values
                      if p is not None and c is not None]
            if not values:
                continue
            parent = statistics.median(p for p, _ in values)
            change = statistics.median(c for _, c in values)
            if parent or change:
                rows.append((name.split(".")[0], parent, change))
        for layer, parent, change in rows:
            print(f"{workload:<8} {layer:<14} {parent:>10.3f} "
                  f"{change:>10.3f} {change - parent:>+10.3f}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

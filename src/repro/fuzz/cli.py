"""``repro fuzz``: campaigns, replays, and corpus maintenance.

Three forms::

    python -m repro fuzz --campaign-seed 7 --budget 50 --jobs 4
    python -m repro fuzz replay tests/fuzz_corpus/<entry>.json
    python -m repro fuzz corpus [DIR]

A campaign exits 1 when any bucket (oracle or harness) was found, so a
CI smoke job is simply a campaign with a pinned seed.  ``replay``
accepts both corpus entries and bare case files; ``corpus`` replays a
whole directory against its recorded expectations.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from repro.fuzz import corpus
from repro.fuzz.campaign import run_campaign
from repro.fuzz.case import CASE_SCHEMA, FuzzCase
from repro.fuzz.runner import run_fuzz_case


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action", nargs="*", metavar="ACTION",
        help="empty = run a campaign; 'replay PATH' = re-run one "
             "reproducer; 'corpus [DIR]' = replay the checked-in "
             "corpus")
    parser.add_argument("--campaign-seed", type=int, default=1,
                        metavar="S",
                        help="root seed every case derives from "
                             "(default 1)")
    parser.add_argument("--budget", type=int, default=50, metavar="N",
                        help="number of cases to generate (default 50)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="process-pool width (engine executor; "
                             "default 1)")
    parser.add_argument("--serve-fraction", type=float, default=0.2,
                        help="fraction of cases run through the "
                             "service mode (default 0.2)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="per-case wall-clock limit under --jobs "
                             "(default 120)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking (report raw failures)")
    parser.add_argument("--shrink-evals", type=int, default=80,
                        help="evaluation budget per bucket while "
                             "shrinking (default 80)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="FIELD=VALUE",
                        help="force a CellConfig field on every case "
                             "(repeatable), e.g. "
                             "--override uid_allocation=lowest_free")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write report.json and shrunk "
                             "reproducers to DIR")
    parser.add_argument("--json", action="store_true",
                        help="print the report/verdict as JSON")


def _parse_overrides(items: List[str]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"fuzz: --override expects FIELD=VALUE, got {item!r}")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            overrides[key] = raw
    return overrides


def _command_campaign(args: argparse.Namespace) -> int:
    report = run_campaign(
        campaign_seed=args.campaign_seed,
        budget=args.budget,
        jobs=args.jobs,
        overrides=_parse_overrides(args.override),
        serve_fraction=args.serve_fraction,
        shrink=not args.no_shrink,
        shrink_evals=args.shrink_evals,
        timeout_s=args.timeout if args.timeout is not None else 120.0,
        out_dir=args.out)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return 1 if report.buckets else 0


def _command_replay(args: argparse.Namespace, path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    schema = data.get("schema")
    if schema == corpus.CORPUS_SCHEMA:
        report = corpus.replay_entry(corpus.load_entry(path))
        ok = report["ok"]
        payload: Dict[str, Any] = dict(report, path=path)
        detail = report["detail"]
    elif schema == CASE_SCHEMA:
        verdict = run_fuzz_case(FuzzCase.from_json(data))
        ok = bool(verdict["ok"])
        payload = verdict
        detail = ("clean" if ok else
                  f"failed into bucket {verdict['bucket']!r}")
    else:
        print(f"fuzz: {path} is neither a case nor a corpus entry "
              f"(schema {schema!r})", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{path}: {detail}")
    return 0 if ok else 1


def _command_corpus(args: argparse.Namespace, directory: str) -> int:
    reports = corpus.replay_corpus(directory)
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        if not reports:
            print(f"fuzz: no corpus entries under {directory}")
        for report in reports:
            mark = "ok " if report["ok"] else "FAIL"
            print(f"  {mark} {report['path']}: {report['detail']}")
    return 0 if all(report["ok"] for report in reports) else 1


def run(args: argparse.Namespace) -> int:
    action = list(args.action)
    if not action:
        return _command_campaign(args)
    verb = action[0]
    if verb == "replay":
        if len(action) != 2:
            print("fuzz: replay expects exactly one PATH",
                  file=sys.stderr)
            return 2
        return _command_replay(args, action[1])
    if verb == "corpus":
        if len(action) > 2:
            print("fuzz: corpus expects at most one DIR",
                  file=sys.stderr)
            return 2
        directory = action[1] if len(action) == 2 \
            else corpus.DEFAULT_CORPUS_DIR
        return _command_corpus(args, directory)
    print(f"fuzz: unknown action {verb!r} (expected 'replay' or "
          f"'corpus')", file=sys.stderr)
    return 2

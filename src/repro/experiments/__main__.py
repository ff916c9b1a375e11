"""CLI: run experiment harnesses and print their reports.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig8a fig8b --quick
    python -m repro.experiments all --quick --jobs 4
    python -m repro.experiments fig8a --no-cache
    python -m repro.experiments chaos --jobs 4 --retries 2

``--jobs N`` runs the experiment's simulation grid on a process pool;
results are bit-identical to ``--jobs 1``.  Results are cached under
``.repro-cache/`` (keyed by config + code version), so reruns of an
unchanged experiment skip the simulations entirely, and a killed run
started again picks up where it was killed; disable with
``--no-cache``.

Resilience flags: ``--timeout``/``--retries`` bound and retry slow or
flaky points, and points that exhaust their retries are reported
(exit code 1) instead of aborting the sweep -- unless ``--fail-fast``
asks for an immediate abort.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.engine import (
    PointFailureError,
    RunPolicy,
    set_default_policy,
    telemetry,
)
from repro.experiments import (
    ablation,
    baselines,
    calibration,
    chaos,
    fig8_delay,
    fig8_utilization,
    fig9_overhead,
    fig10_collision,
    fig11_fairness,
    fig12_gains,
    gps_qos,
    qos_baselines,
    registration,
    robustness,
    tables,
)

EXPERIMENTS = {
    "table1": tables.run_table1,
    "table2": tables.run_table2,
    "fig8a": fig8_utilization.run,
    "fig8b": fig8_delay.run,
    "fig9": fig9_overhead.run,
    "fig10": fig10_collision.run,
    "fig11": fig11_fairness.run,
    "fig12a": fig12_gains.run_second_cf,
    "fig12b": fig12_gains.run_dynamic_adjustment,
    "registration": registration.run,
    "robustness": robustness.run,
    "chaos": chaos.run,
    "gps": gps_qos.run,
    "baselines": baselines.run,
    "qos-rqma": qos_baselines.run_rqma,
    "qos-fama": qos_baselines.run_fama,
    "qos-mcns": qos_baselines.run_mcns,
    "ablation": ablation.run,
    "calibration": calibration.run,
}


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("names", nargs="*",
                        help="experiment names (or 'all')")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--quick", action="store_true",
                        help="smaller runs (benchmark-sized)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="simulation points run in parallel on N "
                             "processes (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write .repro-cache/")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="per-point wall-clock limit in seconds; "
                             "hung workers are killed and the point "
                             "retried (parallel executor)")
    parser.add_argument("--retries", type=int, default=0,
                        metavar="N",
                        help="extra attempts for failed or timed-out "
                             "points, with exponential backoff")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first exhausted point "
                             "instead of salvaging partial results")
    parser.add_argument("--plot", action="store_true",
                        help="also render each result as an ASCII chart")
    parser.add_argument("--save-csv", metavar="DIR",
                        help="also write each result to DIR/<name>.csv")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write the metrics-registry samples "
                             "(engine counters etc.) to PATH as JSONL "
                             "plus manifest and Prometheus sidecars")


def run(args: argparse.Namespace) -> int:
    if args.list or not args.names:
        for name in EXPERIMENTS:
            print(name)
        return 0

    cache = False if args.no_cache else None
    names = list(EXPERIMENTS) if args.names == ["all"] else args.names
    from repro.obs.registry import default_registry
    if args.metrics:
        default_registry().enable()
        default_registry().reset()
    # Install the resilience flags as the process-default policy so
    # every execute() call under every runner sees them.
    set_default_policy(RunPolicy(
        timeout_s=args.timeout, retries=args.retries,
        fail_fast=args.fail_fast))
    exit_code = 0
    try:
        for name in names:
            runner = EXPERIMENTS.get(name)
            if runner is None:
                print(f"unknown experiment {name!r}; use --list",
                      file=sys.stderr)
                return 2
            telemetry.reset()
            started = time.time()
            try:
                result = runner(quick=args.quick, jobs=args.jobs,
                                cache=cache)
            except PointFailureError as error:
                print(f"[{name} aborted by --fail-fast: {error}]",
                      file=sys.stderr)
                return 1
            print(result.format())
            if args.plot:
                _maybe_plot(result)
            if args.save_csv:
                import os
                os.makedirs(args.save_csv, exist_ok=True)
                path = os.path.join(args.save_csv, f"{name}.csv")
                result.save_csv(path)
                print(f"[wrote {path}]")
            if telemetry.records:
                print(telemetry.format())
            if telemetry.failures:
                _print_failure_report(name, telemetry.failures)
                exit_code = 1
            print(f"[{name} finished in {time.time() - started:.1f}s]")
            print()
    finally:
        set_default_policy(None)
        if args.metrics:
            _write_metrics(args.metrics, names)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    configure_parser(parser)
    return run(parser.parse_args(argv))


def _write_metrics(path: str, names) -> None:
    """Dump the registry plus manifest/Prometheus sidecars."""
    from repro.obs.export import (
        build_manifest,
        sidecar_paths,
        write_jsonl,
        write_manifest,
        write_prometheus,
    )
    from repro.obs.registry import default_registry

    registry = default_registry()
    write_jsonl(path, registry.rows())
    paths = sidecar_paths(path)
    write_manifest(paths["manifest"], build_manifest(
        "experiments", argv=sys.argv[1:],
        extra={"experiments": list(names)}))
    write_prometheus(paths["prometheus"], registry)
    print(f"[metrics] registry -> {path} "
          f"(manifest: {paths['manifest']}, "
          f"prometheus: {paths['prometheus']})", file=sys.stderr)


def _print_failure_report(name: str, failures) -> None:
    """The structured report for points that exhausted their retries."""
    report = {"experiment": name,
              "failed_points": [failure.to_json()
                                for failure in failures]}
    print(f"[{name}: {len(failures)} point(s) exhausted their retries; "
          "the table above averages the surviving points]",
          file=sys.stderr)
    print(json.dumps(report, indent=2), file=sys.stderr)


def _maybe_plot(result) -> None:
    """Chart the result when its first column is numeric."""
    from repro.experiments.plots import render_result

    try:
        x_column = result.headers[0]
        float(result.rows[0][0])
        numeric = [header for header in result.headers[1:]
                   if isinstance(result.rows[0][
                       result.headers.index(header)], (int, float))]
        if not numeric:
            return
        print()
        print(render_result(result, x_column, numeric))
    except (TypeError, ValueError):
        return  # non-numeric table (e.g. Table 1): nothing to chart


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface for running OSU-MAC simulations.

Usage::

    python -m repro run --load 0.8 --data-users 9 --gps-users 3
    python -m repro run --metrics out.jsonl --profile --trace trace.jsonl
    python -m repro network --cells 3 --load 0.4 --handoffs 2
    python -m repro city --demo --jobs 4
    python -m repro experiments fig8a fig12b --quick --jobs 4
    python -m repro sweep --loads 0.3,0.8,1.1 --seeds 1,2,3 --jobs 4
    python -m repro sweep --metrics out.jsonl --profile
    python -m repro serve --cells 2 --duration 30 --port 8080
    python -m repro fuzz --campaign-seed 7 --budget 50 --jobs 4
    python -m repro fuzz replay tests/fuzz_corpus/some-entry.json
    python -m repro obs out.jsonl --where load=0.8
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Callable, List, Optional

from repro.core.cell import run_cell_detailed
from repro.core.config import CellConfig
from repro.phy import timing


def _add_cell_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--load", type=float, default=0.5,
                        help="load index rho (default 0.5)")
    parser.add_argument("--data-users", type=int, default=9)
    parser.add_argument("--gps-users", type=int, default=3)
    parser.add_argument("--cycles", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--message-size", choices=("fixed", "uniform"),
                        default="uniform")
    parser.add_argument("--error-model",
                        choices=("perfect", "outage", "iid", "ge"),
                        default="perfect")
    parser.add_argument("--outage-loss", type=float, default=0.01)
    parser.add_argument("--symbol-error-rate", type=float, default=0.005)
    parser.add_argument("--full-fidelity", action="store_true",
                        help="run real RS codewords through the channel")
    parser.add_argument("--forward-load", type=float, default=0.0)
    parser.add_argument("--no-second-cf", action="store_true")
    parser.add_argument("--no-dynamic-adjustment", action="store_true")
    parser.add_argument("--faults", default="",
                        help="fault schedule, e.g. "
                             "'crash:data-0@40;restart:data-0@52;"
                             "fade:gps-*@60+4*0.9'")
    parser.add_argument("--lease", type=int, default=0, metavar="CYCLES",
                        help="liveness lease: deregister subscribers "
                             "silent for CYCLES cycles (0 = off)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run the per-cycle protocol invariant "
                             "monitor (repro.faults.invariants)")
    parser.add_argument("--json", action="store_true",
                        help="print the summary as JSON")


def _cell_config(args: argparse.Namespace) -> CellConfig:
    from repro.faults.schedule import parse_faults

    return CellConfig(
        faults=parse_faults(args.faults) if args.faults else (),
        liveness_lease_cycles=args.lease,
        check_invariants=args.check_invariants,
        num_data_users=args.data_users,
        num_gps_users=args.gps_users,
        load_index=args.load,
        message_size=args.message_size,
        cycles=args.cycles,
        warmup_cycles=args.warmup,
        seed=args.seed,
        error_model=args.error_model,
        outage_loss=args.outage_loss,
        symbol_error_rate=args.symbol_error_rate,
        full_fidelity=args.full_fidelity,
        forward_load_index=args.forward_load,
        use_second_cf=not args.no_second_cf,
        dynamic_slot_adjustment=not args.no_dynamic_adjustment)


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="per-point wall-clock limit in seconds "
                             "(parallel executor)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra attempts for failed or timed-out "
                             "points")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first exhausted point")


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="record a per-cycle timeline to PATH "
                             "(JSONL) plus manifest and Prometheus "
                             "sidecars")
    parser.add_argument("--profile", action="store_true",
                        help="profile the event loop with cProfile and "
                             "print the heaviest functions by self "
                             "time to stderr")


def _report_profile(rows, metrics: Optional[str]) -> None:
    """Print a profile's table; with ``--metrics``, also write its rows
    to the ``<base>.profile.json`` sidecar."""
    from repro.obs.export import sidecar_paths
    from repro.obs.profiler import format_rows

    if metrics:
        with open(sidecar_paths(metrics)["profile"], "w",
                  encoding="utf-8") as f:
            json.dump(rows, f, indent=2)
            f.write("\n")
    print(format_rows(rows), file=sys.stderr)


def _instrumented_run(config: CellConfig, args: argparse.Namespace):
    """``run_cell_detailed`` with trace/timeline/profile attached."""
    from repro.core.cell import build_cell, finalize_run
    from repro.obs.export import (
        build_manifest,
        sidecar_paths,
        write_manifest,
        write_prometheus,
    )
    from repro.obs.profiler import profile_call
    from repro.obs.registry import default_registry
    from repro.obs.timeline import TimelineRecorder
    from repro.trace import CellTracer

    registry = default_registry()
    if args.metrics:
        registry.enable()
    run = build_cell(config)
    tracer = CellTracer(run) if args.trace else None
    recorder = (TimelineRecorder(run, registry=registry)
                if args.metrics else None)
    rows = None
    if args.profile:
        _, rows = profile_call(run.sim.run, until=config.duration)
    else:
        run.sim.run(until=config.duration)
    finalize_run(run)

    if tracer is not None:
        count = tracer.write_jsonl(args.trace)
        print(f"[trace] {count} events -> {args.trace}",
              file=sys.stderr)
    if recorder is not None:
        paths = sidecar_paths(args.metrics)
        count = recorder.write_jsonl(paths["timeline"])
        manifest = build_manifest(
            "run", config=config, argv=sys.argv[1:],
            extra={"obs": recorder.summary()})
        write_manifest(paths["manifest"], manifest)
        write_prometheus(paths["prometheus"], registry)
        print(f"[metrics] {count} cycles -> {paths['timeline']} "
              f"(manifest: {paths['manifest']}, "
              f"prometheus: {paths['prometheus']})", file=sys.stderr)
    if rows is not None:
        _report_profile(rows, args.metrics)
    return run


def _command_run(args: argparse.Namespace) -> int:
    config = _cell_config(args)
    if args.trace or args.metrics or args.profile:
        run = _instrumented_run(config, args)
    else:
        run = run_cell_detailed(config)
    stats = run.stats
    if args.json:
        print(json.dumps(stats.summary(), indent=2))
        return 0
    print(f"simulated {config.cycles} cycles "
          f"({config.duration:.0f} s) at rho={config.load_index}")
    for key, value in stats.summary().items():
        print(f"  {key:34s} {value:.4g}")
    print(f"  registrations                      "
          f"{stats.registrations_completed}")
    return 0


def _command_network(args: argparse.Namespace) -> int:
    from repro.network import MultiCellConfig, build_network

    cell = CellConfig(num_data_users=args.data_users,
                      num_gps_users=args.gps_users,
                      load_index=0.0,
                      cycles=args.cycles,
                      warmup_cycles=args.warmup,
                      seed=args.seed)
    config = MultiCellConfig(num_cells=args.cells, cell=cell,
                             load_index=args.load,
                             inter_cell_fraction=args.inter_cell,
                             seed=args.seed)
    network = build_network(config)
    for index in range(args.handoffs):
        source = index % args.cells
        mover = network.cells[source].data_users[0]
        target = (source + 1) % args.cells
        when = (args.warmup + 20 + 25 * index) * timing.CYCLE_LENGTH
        network.handoff(mover.ein, target, at_time=when)
    if args.metrics:
        from repro.obs.registry import default_registry

        default_registry().enable()
    stats = network.run()
    if args.metrics:
        from repro.obs.export import write_prometheus
        from repro.obs.registry import default_registry

        write_prometheus(args.metrics, default_registry())
        print(f"[metrics] osu_network_* -> {args.metrics}",
              file=sys.stderr)
    payload = {
        "messages_routed": stats.messages_routed,
        "messages_forwarded": stats.messages_forwarded,
        "end_to_end_delay_mean_s": stats.end_to_end_delay.mean,
        "handoffs_completed": stats.handoffs_completed,
        "backbone_bytes": network.backbone.total_bytes,
        "cells": [cell_run.stats.summary()
                  for cell_run in network.cells],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{args.cells} cells, {stats.messages_routed} messages routed "
          f"({stats.messages_forwarded} over the backbone), "
          f"{stats.handoffs_completed} handoffs")
    print(f"end-to-end delay: {stats.end_to_end_delay.mean:.1f} s mean")
    for index, cell_run in enumerate(network.cells):
        cell_stats = cell_run.stats
        print(f"  cell {index}: util="
              f"{cell_stats.utilization():.3f} "
              f"violations={int(cell_stats.radio_violations)} "
              f"gps_misses={cell_stats.gps_deadline_misses}")
    return 0


def _observed_sweep(args: argparse.Namespace, loads, seeds, policy):
    """Run the sweep through the observed spec and write artifacts."""
    from repro.engine import execute
    from repro.obs.export import (
        build_manifest,
        config_digest,
        sidecar_paths,
        write_jsonl,
        write_manifest,
        write_prometheus,
    )
    from repro.obs.profiler import Rows, merge_rows
    from repro.obs.registry import default_registry
    from repro.experiments.runner import observed_sweep_spec

    if args.metrics:
        default_registry().enable()
    spec = observed_sweep_spec(
        loads=loads, seeds=seeds, profile=args.profile,
        num_data_users=args.data_users,
        num_gps_users=args.gps_users,
        cycles=args.cycles, warmup_cycles=args.warmup)
    # A profile's timings are measured, not computed: a cached point
    # would replay an earlier run's.
    result = execute(spec, jobs=args.jobs,
                     cache=False if args.no_cache or args.profile
                     else None,
                     policy=policy)
    values = [value for value in result.values if value]

    if args.metrics:
        records = []
        margins = []
        for value, point in zip(result.values, spec.points):
            if not value:
                continue
            for record in value["timeline"]:
                merged = dict(record)
                merged.update(point.label)
                records.append(merged)
            margin = value["obs"].get("gps_min_margin_s")
            if margin is not None:
                margins.append(margin)
        paths = sidecar_paths(args.metrics)
        write_jsonl(paths["timeline"], records)
        manifest = build_manifest(
            "sweep", policy=policy, argv=sys.argv[1:],
            extra={
                "grid": {
                    "loads": list(loads),
                    "seeds": list(seeds),
                    "cycles": args.cycles,
                    "warmup_cycles": args.warmup,
                    "num_data_users": args.data_users,
                    "num_gps_users": args.gps_users,
                },
                "config_sha256": config_digest(
                    [point.config for point in spec.points]),
                "points": len(spec.points),
                "obs": {
                    "gps_min_margin_s":
                        min(margins) if margins else None,
                    "gps_deadline_held":
                        (min(margins) >= 0.0) if margins else None,
                },
            })
        write_manifest(paths["manifest"], manifest)
        write_prometheus(paths["prometheus"], default_registry())
        print(f"[metrics] {len(records)} cycle records -> "
              f"{paths['timeline']} (manifest: {paths['manifest']}, "
              f"prometheus: {paths['prometheus']})", file=sys.stderr)
    if args.profile:
        rows: Rows = {}
        for value in values:
            merge_rows(rows, value["profile"])
        _report_profile(rows, args.metrics)
    return result.reduced


def _command_sweep(args: argparse.Namespace) -> int:
    """An ad-hoc engine load sweep straight from the command line."""
    from repro.engine import PointFailureError, RunPolicy, telemetry
    from repro.experiments.runner import PAPER_LOADS, sweep_loads

    try:
        loads = (tuple(float(item) for item in args.loads.split(","))
                 if args.loads else PAPER_LOADS)
        seeds = tuple(int(item) for item in args.seeds.split(","))
    except ValueError:
        print("sweep: --loads/--seeds must be comma-separated numbers, "
              f"got --loads {args.loads!r} --seeds {args.seeds!r}",
              file=sys.stderr)
        return 2
    policy = RunPolicy(timeout_s=args.timeout, retries=args.retries,
                       fail_fast=args.fail_fast)
    telemetry.reset()
    try:
        if args.metrics or args.profile:
            points = _observed_sweep(args, loads, seeds, policy)
        else:
            points = sweep_loads(
                loads=loads, seeds=seeds,
                num_data_users=args.data_users,
                num_gps_users=args.gps_users,
                cycles=args.cycles, warmup_cycles=args.warmup,
                jobs=args.jobs, cache=False if args.no_cache else None,
                policy=policy)
    except PointFailureError as error:
        print(f"sweep aborted by --fail-fast: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(points, indent=2))
    else:
        for point in points:
            print(f"rho={point['load']:<5g} "
                  f"util={point['utilization']:.3f} "
                  f"delay={point['mean_message_delay_cycles']:.2f}cy "
                  f"loss={point['message_loss_rate']:.3f} "
                  f"fairness={point['fairness']:.3f}")
    print(telemetry.format(), file=sys.stderr)
    failures = telemetry.failures
    if failures:
        print(json.dumps({"failed_points": [failure.to_json()
                                            for failure in failures]},
                         indent=2), file=sys.stderr)
        return 1
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    """Render a recorded timeline (``--metrics`` output) as charts."""
    from repro.obs.export import read_jsonl
    from repro.obs.render import (
        filter_records,
        render_timeline,
        timeline_digest,
    )

    records = read_jsonl(args.path)
    if not records:
        print(f"obs: no records in {args.path}", file=sys.stderr)
        return 1
    where = {}
    for item in args.where:
        key, sep, value = item.partition("=")
        if not sep or not key:
            print(f"obs: --where expects KEY=VALUE, got {item!r}",
                  file=sys.stderr)
            return 2
        where[key] = value
    if where:
        records = filter_records(records, where)
        if not records:
            print(f"obs: no records match {where}", file=sys.stderr)
            return 1
    columns = None
    if args.columns:
        columns = tuple(name for name in args.columns.split(",")
                        if name)
    if args.json:
        print(json.dumps(timeline_digest(records), indent=2))
        return 0
    print(render_timeline(records, columns=columns))
    return 0


def _configure_run(parser: argparse.ArgumentParser) -> None:
    _add_cell_arguments(parser)
    _add_obs_arguments(parser)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="dump the protocol event trace to "
                             "PATH as JSONL")
    parser.set_defaults(handler=_command_run)


def _configure_network(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cells", type=int, default=2)
    parser.add_argument("--load", type=float, default=0.4)
    parser.add_argument("--inter-cell", type=float, default=0.5)
    parser.add_argument("--data-users", type=int, default=6)
    parser.add_argument("--gps-users", type=int, default=2)
    parser.add_argument("--cycles", type=int, default=150)
    parser.add_argument("--warmup", type=int, default=20)
    parser.add_argument("--handoffs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write osu_network_* families to "
                             "PATH in Prometheus text format")
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(handler=_command_network)


def _configure_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--loads", default="",
                        help="comma-separated load indices "
                             "(default: the paper's sweep)")
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seeds")
    parser.add_argument("--data-users", type=int, default=9)
    parser.add_argument("--gps-users", type=int, default=2)
    parser.add_argument("--cycles", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=30)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--no-cache", action="store_true")
    _add_resilience_arguments(parser)
    _add_obs_arguments(parser)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(handler=_command_sweep)


def _configure_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path",
                        help="timeline JSONL written by --metrics")
    parser.add_argument("--columns", default="",
                        help="comma-separated timeline columns to "
                             "chart (default: the headline set)")
    parser.add_argument("--where", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="filter records by a label or field "
                             "(repeatable), e.g. --where load=0.8")
    parser.add_argument("--json", action="store_true",
                        help="print a digest of the timeline as "
                             "JSON instead of charts")
    parser.set_defaults(handler=_command_obs)


def _delegate(module: str) -> Callable[[argparse.ArgumentParser], None]:
    """Configure a sub-command whose ``configure_parser`` and ``run``
    live in ``module``."""
    def configure(parser: argparse.ArgumentParser) -> None:
        cli = importlib.import_module(module)
        cli.configure_parser(parser)
        parser.set_defaults(handler=cli.run)
    return configure


#: (name, help, configure) of every sub-command, in ``--help`` order.
_COMMANDS = (
    ("run", "simulate one cell and print its metrics", _configure_run),
    ("network", "simulate a multi-cell network with handoffs",
     _configure_network),
    ("experiments", "regenerate the paper's tables and figures",
     _delegate("repro.experiments.__main__")),
    ("sweep", "run a load sweep on the engine and print points",
     _configure_sweep),
    ("lint", "run maclint, the protocol-aware static analyzer",
     _delegate("repro.lint.cli")),
    ("serve", "run cells as a supervised long-lived service "
              "with checkpoints and a live control plane",
     _delegate("repro.serve.cli")),
    ("fuzz", "run deterministic adversarial campaigns with "
             "invariant oracles, shrinking, and a regression "
             "corpus",
     _delegate("repro.fuzz.cli")),
    ("city", "run a city-scale sharded multicell simulation "
             "in lockstep epochs",
     _delegate("repro.shard.cli")),
    ("obs", "render a recorded per-cycle timeline", _configure_obs),
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="OSU-MAC reproduction: simulate cells, networks, "
                    "and regenerate the paper's evaluation.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    argv = list(sys.argv[1:] if argv is None else argv)
    # Every sub-command is listed, but only the chosen one is
    # configured, so a command imports no other command's package.
    for name, help_text, configure in _COMMANDS:
        command_parser = subparsers.add_parser(name, help=help_text)
        if argv[:1] == [name]:
            configure(command_parser)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""``repro city``: run a sharded city, optionally over worker processes.

Examples::

    python -m repro city --demo --jobs 4
    python -m repro city --rows 4 --cols 4 --shards 2 --epochs 4
    python -m repro city --demo --digest-only          # CI determinism
    python -m repro city --demo --resume               # after a kill
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

from repro.core.config import CellConfig
from repro.shard.config import CityConfig, MobilityConfig, demo_config
from repro.shard.coordinator import CityResult, run_city


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--demo", action="store_true",
                        help="run the demo grid: 64 cells x 8 shards, "
                             "448 subscribers, a rush-hour mobility "
                             "wave")
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--epoch-cycles", type=int, default=25,
                        help="MAC cycles per epoch (default 25)")
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument("--data-users", type=int, default=4,
                        help="data subscribers per cell")
    parser.add_argument("--gps-users", type=int, default=1,
                        help="GPS units per cell")
    parser.add_argument("--load", type=float, default=0.4,
                        help="per-cell uplink load index")
    parser.add_argument("--inter-cell", type=float, default=0.5,
                        help="fraction of messages addressed across "
                             "cells")
    parser.add_argument("--movers", type=int, default=1,
                        help="mobile data subscribers per cell")
    parser.add_argument("--gps-movers", type=int, default=0,
                        help="mobile GPS units (buses) per cell")
    parser.add_argument("--hops-per-epoch", type=float, default=0.5,
                        help="expected cell transitions per mover per "
                             "epoch")
    parser.add_argument("--rush", default="",
                        help="comma-separated per-epoch mobility "
                             "multipliers, e.g. 0.25,1,3,3,1,0.25")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1,
                        help="1 = all shards in this process; N >= 2 = "
                             "min(N, shards) worker processes that keep "
                             "their shards across epochs")
    parser.add_argument("--resume", action="store_true",
                        help="resume a killed run from its epoch "
                             "journal (verifying the committed prefix)")
    parser.add_argument("--no-checkpoint", action="store_true",
                        help="skip the per-epoch city journal")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write osu_city_* metric families to PATH "
                             "in Prometheus text format")
    parser.add_argument("--digest-only", action="store_true",
                        help="print only the city-state digest")
    parser.add_argument("--json", action="store_true",
                        help="print the full result as JSON")


def build_config(args: argparse.Namespace) -> CityConfig:
    if args.demo:
        return demo_config(seed=args.seed)
    rush: Optional[Tuple[float, ...]] = None
    if args.rush:
        rush = tuple(float(item) for item in args.rush.split(","))
    return CityConfig(
        rows=args.rows, cols=args.cols, num_shards=args.shards,
        cell=CellConfig(num_data_users=args.data_users,
                        num_gps_users=args.gps_users,
                        load_index=0.0),
        load_index=args.load, inter_cell_fraction=args.inter_cell,
        epochs=args.epochs, cycles_per_epoch=args.epoch_cycles,
        warmup_cycles=args.warmup,
        mobility=MobilityConfig(
            movers_per_cell=args.movers,
            gps_movers_per_cell=args.gps_movers,
            hops_per_epoch=args.hops_per_epoch,
            rush_multipliers=rush),
        seed=args.seed)


def _print_human(config: CityConfig, result: CityResult) -> None:
    counters = result.counters
    print(f"{config.num_cells} cells ({config.rows}x{config.cols}) "
          f"in {config.num_shards} shards, "
          f"{config.epochs} epochs x {config.cycles_per_epoch} cycles, "
          f"{len(config.all_eins())} subscribers")
    handoffs = (counters["handoffs_local"] + counters["handoffs_out"])
    received = counters["messages_received"]
    delay = (counters["end_to_end_delay_total"] / received
             if received else 0.0)
    print(f"  messages routed      {counters['messages_routed']}")
    print(f"  delivered in-cell    "
          f"{counters['messages_delivered_local']}")
    print(f"  forwarded            {counters['messages_forwarded']} "
          f"({counters['messages_cross_shard']} cross-shard)")
    print(f"  received end-to-end  {received} "
          f"(mean delay {delay:.1f} s)")
    print(f"  buffered for reg.    "
          f"{counters['messages_buffered_for_registration']}")
    print(f"  handoffs             {handoffs} "
          f"({counters['handoffs_out']} cross-shard)")
    print(f"  radio violations     {counters['radio_violations']}")
    if result.verified_epochs:
        print(f"  resumed: verified {result.verified_epochs} journaled "
              f"epoch(s)")
    print(f"  wall time            {result.wall_s:.1f} s")
    print(f"city digest {result.digest}")


def run(args: argparse.Namespace) -> int:
    try:
        config = build_config(args)
    except ValueError as error:
        print(f"city: {error}", file=sys.stderr)
        return 2
    if args.metrics:
        from repro.obs.registry import default_registry

        default_registry().enable()
    result = run_city(
        config, jobs=args.jobs, checkpoint=not args.no_checkpoint,
        resume=args.resume)
    if args.metrics:
        from repro.obs.export import write_prometheus
        from repro.obs.registry import default_registry

        write_prometheus(args.metrics, default_registry())
        print(f"[metrics] osu_city_* -> {args.metrics}",
              file=sys.stderr)
    if args.digest_only:
        print(result.digest)
        return 0
    if args.json:
        print(json.dumps({
            "digest": result.digest,
            "epoch_digests": result.epoch_digests,
            "counters": result.counters,
            "verified_epochs": result.verified_epochs,
            "wall_s": result.wall_s,
        }, indent=2))
        return 0
    _print_human(config, result)
    return 0

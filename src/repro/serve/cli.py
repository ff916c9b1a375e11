"""``repro serve`` -- the long-lived service entry point.

Examples::

    python -m repro serve --cells 2 --cycle-period 0.05 --port 8080
    python -m repro serve --duration 30 --faults 'cf_storm:-@20+5*0.8'
    python -m repro serve --resume --name soak --journal-dir /var/run

The process prints one JSON line to stdout when the control plane is
up (``{"event": "listening", "port": ..., ...}``) so harnesses can
discover an ephemeral port; ``--port-file`` additionally writes the
port to a file.  Exit code 0 means every cell drained cleanly.
"""

from __future__ import annotations

import argparse
import json
import threading
from typing import List, Optional

from repro.core.config import CellConfig
from repro.serve.config import ServeConfig

__all__ = ["configure_parser", "run", "main"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    cell = parser.add_argument_group("cell")
    cell.add_argument("--load", type=float, default=0.5,
                      help="load index rho (default 0.5)")
    cell.add_argument("--data-users", type=int, default=9)
    cell.add_argument("--gps-users", type=int, default=3)
    cell.add_argument("--seed", type=int, default=1)
    cell.add_argument("--lease", type=int, default=8, metavar="CYCLES",
                      help="liveness lease in cycles (default 8; the "
                           "service needs leases for leave/crash "
                           "cleanup, so 0 is coerced to 8)")
    cell.add_argument("--faults", default="",
                      help="initial fault schedule (absolute cycles), "
                           "e.g. 'crash:data-0@40;restart:data-0@52'")
    cell.add_argument("--eviction-jitter", type=int, default=2,
                      metavar="CYCLES",
                      help="seeded 0..N-cycle backoff before "
                           "re-registering after a suspected eviction "
                           "(default 2; de-synchronizes mass-eviction "
                           "retry storms)")

    serve = parser.add_argument_group("service")
    serve.add_argument("--name", default="serve",
                       help="journal/metric namespace (default serve)")
    serve.add_argument("--cells", type=int, default=1,
                       help="independent cells to supervise")
    serve.add_argument("--cycle-period", type=float, default=0.05,
                       metavar="S",
                       help="real seconds per notification cycle "
                            "(default 0.05; 0 = unpaced)")
    serve.add_argument("--max-cycles", type=int, default=None)
    serve.add_argument("--duration", type=float, default=None,
                       metavar="S", help="stop after S real seconds")
    serve.add_argument("--checkpoint-every", type=int, default=1,
                       metavar="CYCLES")
    serve.add_argument("--journal-dir", default=None, metavar="DIR")
    serve.add_argument("--resume", action="store_true",
                       help="replay the journals and continue the "
                            "previous run of --name")
    serve.add_argument("--stall-timeout", type=float, default=10.0,
                       metavar="S")
    serve.add_argument("--max-restarts", type=int, default=3)
    serve.add_argument("--lag-budget", type=float, default=1.0,
                       metavar="S")
    serve.add_argument("--lag-recover", type=float, default=0.25,
                       metavar="S")
    serve.add_argument("--degrade-factor", type=float, default=0.25)
    serve.add_argument("--stabilize-window", type=int, default=10,
                       metavar="K")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="control-plane port (default 0: ephemeral)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port to PATH once up")


def _configs(args: argparse.Namespace):
    from repro.faults.schedule import parse_faults

    cell = CellConfig(
        num_data_users=args.data_users,
        num_gps_users=args.gps_users,
        load_index=args.load,
        seed=args.seed,
        liveness_lease_cycles=args.lease,
        eviction_backoff_jitter_cycles=args.eviction_jitter,
        faults=parse_faults(args.faults) if args.faults else (),
        check_invariants=True,
        cycles=10 ** 9,
        warmup_cycles=0)
    serve = ServeConfig(
        name=args.name,
        cells=args.cells,
        cycle_period_s=args.cycle_period,
        max_cycles=args.max_cycles,
        duration_s=args.duration,
        checkpoint_every=args.checkpoint_every,
        journal_root=args.journal_dir,
        stall_timeout_s=args.stall_timeout,
        max_restarts=args.max_restarts,
        lag_budget_s=args.lag_budget,
        lag_recover_s=args.lag_recover,
        degrade_factor=args.degrade_factor,
        stabilize_window=args.stabilize_window,
        host=args.host,
        port=args.port)
    return cell, serve


def run(args: argparse.Namespace) -> int:
    from repro.obs.registry import MetricsRegistry, default_registry
    from repro.serve.control import ControlServer
    from repro.serve.supervisor import Supervisor

    cell_config, serve_config = _configs(args)
    # Per-cell serve metrics live in a dedicated registry; the process
    # default registry (invariant counters and friends) is enabled too
    # and concatenated into /metrics.
    registry = MetricsRegistry(enabled=True)
    default_registry().enable()

    supervisor = Supervisor(serve_config, cell_config,
                            registry=registry)
    if threading.current_thread() is threading.main_thread():
        supervisor.install_signal_handlers()
    control = ControlServer(supervisor, host=serve_config.host,
                            port=serve_config.port)
    control.start()
    supervisor.start(resume=args.resume)
    announce = {"event": "listening", "host": serve_config.host,
                "port": control.port, "name": serve_config.name,
                "cells": serve_config.cells, "resume": args.resume}
    print(json.dumps(announce, sort_keys=True), flush=True)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{control.port}\n")
    try:
        code = supervisor.run()
    finally:
        supervisor.request_shutdown()
        supervisor.join(timeout=30.0)
        control.stop()
    status = supervisor.status()
    print(json.dumps({"event": "stopped", "exit": code,
                      "cells": [{"name": entry["name"],
                                 "state": entry["state"],
                                 "cycle": entry["cycle"],
                                 "error": entry["error"]}
                                for entry in status["cells"]]},
                     sort_keys=True), flush=True)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run cells as a supervised long-lived service.")
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

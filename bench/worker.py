"""One benchmark worker process, launched by ``run.py``.

Modes:

* ``setup`` -- build the workload's inputs and exit;
* ``timed`` -- set up, warm up, then repeat until ``--budget`` seconds
  of repetitions have run (at least one), then the untimed checks;
* ``fixed`` -- set up, warm up, then exactly ``--reps`` repetitions;
* ``trace`` -- set up, warm up, the untraced per-layer extras, then one
  repetition under the profiler.

The host's speed is sampled during set-up and during every untraced
repetition (``hostspeed``); the traced repetition, which must not see
the samples, takes the mean of two calibrations on either side of it.
The last line on stdout is one JSON object: the monotonic time at which
set-up finished (the harness subtracts its launch time), the set-up's
host speed, the peak RSS after the first repetition, every repetition
and check, and in trace mode the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

from hostspeed import Sampler, calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv: Any) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", default="timed",
                        choices=("setup", "timed", "fixed", "trace"))
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", required=True)
    return parser.parse_args(argv)


def main(argv: Any = None) -> int:
    setup = Sampler()
    setup.start()
    args = _parse(argv)
    import repro

    from layers import attribute
    from workloads import WORKLOADS, Meter

    source = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        setup.stop()
        print(f"worker: imported repro from {repro.__file__}, "
              f"not {source}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.jobs, args.smoke,
                                        args.tmp)
    out: Dict[str, Any] = {"ready_at": time.monotonic()}
    setup.stop()
    out["setup_calib_s"] = setup.spent_s
    out["setup_calib_mops"] = setup.mops
    reps: List[Dict[str, Any]] = []
    checks: List[Dict[str, Any]] = []

    def measured(profile: bool = False) -> Any:
        """One repetition and its meter.  The host is sampled inside the
        interval.  At jobs 1 the program stops while a sample runs, so
        the samples' time is subtracted; at jobs 2 the engine's pool
        keeps working on both cores meanwhile, so nothing is.  A
        profiled repetition must not see the samples; it takes the mean
        of calibrations right before and right after instead."""
        if not profile:
            meter = Meter(sample=True)
            rep = workload.rep(meter)
            if args.jobs != 1:
                rep["calib_s"] = 0.0
            return rep, meter
        before = calibrate()
        meter = Meter(profile=True, threads=workload.threaded)
        rep = workload.rep(meter)
        rep["calib_mops"] = (before + calibrate()) / 2
        return rep, meter

    try:
        if args.mode != "setup":
            workload.warm_up()
        if args.mode in ("timed", "fixed"):
            deadline = time.perf_counter() + args.budget
            while len(reps) < args.reps or time.perf_counter() < deadline:
                reps.append(measured()[0])
                if len(reps) == 1:
                    # Serve retains memory per cycle, so a peak taken
                    # later would depend on how many repetitions fit.
                    out["rss_mb"] = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.mode == "timed":
                checks.append(workload.verify())
        elif args.mode == "trace":
            extras = workload.extras()
            reps.extend(extras["reps"])
            checks.extend(extras["checks"])
            out["extras"] = {"metrics": extras["metrics"],
                             "samples": extras["samples"]}
            traced, meter = measured(profile=True)
            reps.append(traced)
            out["traced"] = traced
            out["profile"] = attribute(meter.profiled.table)
    finally:
        workload.close()
    out["reps"] = reps
    out["checks"] = checks
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark harness: four workloads, end to end and per layer.

Run from anywhere; it finds the repository from its own path::

    python3 bench/run.py                      # all workloads, both passes
    python3 bench/run.py --workload city --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --smoke --json /tmp/bench.json

Each measurement runs in a fresh worker process (``bench/worker.py``),
one at a time.  ``--trace 0`` is the untraced pass: five set-up-only
launches per workload, then three rounds that each launch, per
workload, a worker at every ``--jobs`` value its tool has (1 and 2;
serve has no ``--jobs`` and runs at 1), round-robin, each repeating its
workload for its share of ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``).  It reports the end-to-end metrics of
``BENCHMARK.json``, each the median over every repetition or launch,
with every time scaled to a reference host speed (``hostspeed.py``).
``--trace 1`` is the traced pass: workers at the same job counts with
the same fixed repetitions (for the untraced baseline and the CPU
ratio), then one worker that takes the per-layer extras and profiles
one repetition.  Without ``--trace`` both passes run.

Every repetition's output digest must match every other one of the
same workload and seed, at either job count, and for seed 1 the golden
digest in ``bench/golden.json``.  The last line on stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from hostspeed import calibrate
from layers import LAYERS
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
ROUNDS = 3
SETUP_LAUNCHES = 5
#: Repetitions of the traced pass's untraced workers.
FIXED_REPS = {"sweep": 3, "city": 1, "fuzz": 2, "serve": 1}
#: Wall-clock limit per workload and pass.
TIME_LIMIT_S = 170.0
GOLDEN_SEED = 1
#: Host speed (``hostspeed.calibrate``, M events/s) that end-to-end
#: times and rates, and the per-layer times per cell-cycle, are scaled
#: to.
REFERENCE_MOPS = 1.0


class BenchError(RuntimeError):
    """A worker failed to produce a result."""


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running (zombies
    waiting for their reaper do not count)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            return True
    return False


def stop_group(process: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Wait until a worker and every process it started (its own
    process group) have ended; kill the group if it outlives
    ``grace_s`` or the worker is still running."""
    if process.poll() is None:
        os.killpg(process.pid, signal.SIGKILL)
    process.wait()
    deadline = time.monotonic() + grace_s
    killed = False
    while _group_alive(process.pid):
        if time.monotonic() > deadline:
            if killed:
                return
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.01)


def host_speed() -> float:
    return statistics.median(calibrate() for _ in range(3))


def own_wall(rep: Dict[str, Any]) -> float:
    """A repetition's wall time minus the host-speed samples in it."""
    return rep["wall_s"] - rep["calib_s"]


def scaled_wall(rep: Dict[str, Any]) -> float:
    """A repetition's wall time on a host of REFERENCE_MOPS speed."""
    return own_wall(rep) * rep["calib_mops"] / REFERENCE_MOPS


def summarize(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"value": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered)}


def too_wide(round_medians: Dict[str, List[float]],
             declared: Dict[str, Any]) -> List[str]:
    """The metrics whose per-round medians spread (max - min over
    their median) wider than their bound: the host drifted across the
    rounds by more than the scaling removed, so the record cannot
    resolve a change of the bound's size.  ``setup_s`` is left out; its
    samples are single interpreter launches and only its median over
    all launches is bounded."""
    wide = []
    for metric in declared["end_to_end"]:
        medians = round_medians.get(metric["name"], [])
        if len(medians) < 2 or metric["name"] == "setup_s":
            continue
        spread = (max(medians) - min(medians)) / statistics.median(medians)
        if spread > metric["bound"]:
            wide.append(metric["name"])
    return wide


class Tally:
    """Everything measured and checked for one workload."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = collections.defaultdict(list)
        #: Median of each round's samples, for the noise flag.
        self.round_medians: Dict[str, List[float]] = \
            collections.defaultdict(list)
        self.per_layer: Dict[str, Dict[str, float]] = {}
        #: (jobs, digest, ops) of every repetition.
        self.outputs: List[Any] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Fuzz oracle buckets: output, reported but not failed.
        self.findings: List[str] = []

    def add(self, jobs: int, result: Dict[str, Any]) -> None:
        for rep in result["reps"]:
            self.outputs.append((jobs, rep["digest"], rep["ops"]))
            for bucket in rep.get("findings", ()):
                if bucket not in self.findings:
                    self.findings.append(bucket)
            self.attempted += rep["ops"]
            self.failed += rep["failed"]
            if rep["failed"]:
                self.problems.append(f"jobs {jobs}: {rep['failed']} of "
                                     f"{rep['ops']} operations failed")
        for check in result["checks"]:
            self.attempted += check["ops"]
            self.failed += check["failed"]
            self.problems.extend(check["problems"])

    def add_setup(self, result: Dict[str, Any]) -> None:
        own = result["setup_s"] - result["setup_calib_s"]
        self.samples["setup_s"].append(
            own * result["setup_calib_mops"] / REFERENCE_MOPS)
        self.samples["raw.setup_s"].append(own)

    def judge(self, golden: Optional[str]) -> None:
        """Every digest must equal the golden one or, without it, the
        most common one."""
        if not self.outputs:
            return
        reference = golden or collections.Counter(
            digest for _, digest, _ in self.outputs).most_common(1)[0][0]
        for jobs, digest, ops in self.outputs:
            if digest != reference:
                self.failed += ops
                self.problems.append(f"jobs {jobs}: digest {digest[:12]} "
                                     f"!= expected {reference[:12]}")

    def digests(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for jobs, digest, _ in self.outputs:
            if digest not in out.setdefault(str(jobs), []):
                out[str(jobs)].append(digest)
        return out


class Harness:
    def __init__(self, args: argparse.Namespace, declared: Dict[str, Any],
                 tmp: str):
        self.args = args
        self.declared = declared
        self.tmp = tmp
        self.launches = 0
        self.calibrations: List[float] = []

    # -- workers -----------------------------------------------------------

    def _env(self, tmp: str) -> Dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        source = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"]
                                      if env.get("PYTHONPATH") else "")
        env["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
        env["REPRO_JOURNAL_DIR"] = os.path.join(tmp, "journal")
        env["TMPDIR"] = tmp
        return env

    def launch(self, workload: str, jobs: int, mode: str,
               deadline: float, budget: float = 0.0,
               reps: int = 1) -> Dict[str, Any]:
        """Run one worker to completion; adds ``setup_s`` (launch to
        ready) and ``cpu_s`` (CPU of the worker's whole process tree)."""
        self.launches += 1
        tmp = os.path.join(self.tmp, f"w{self.launches}")
        os.makedirs(tmp)
        command = [sys.executable, os.path.join(BENCH, "worker.py"),
                   "--workload", workload, "--jobs", str(jobs),
                   "--seed", str(self.args.seed), "--mode", mode,
                   "--budget", repr(budget), "--reps", str(reps),
                   "--tmp", tmp]
        if self.args.smoke:
            command.append("--smoke")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        launched = time.monotonic()
        process = subprocess.Popen(command, cwd=ROOT, env=self._env(tmp),
                                   stdout=subprocess.PIPE, text=True,
                                   start_new_session=True)
        try:
            stdout, _ = process.communicate(
                timeout=max(1.0, deadline - launched))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} worker (jobs {jobs}) ran "
                             f"past the time limit") from None
        finally:
            stop_group(process)
            shutil.rmtree(tmp, ignore_errors=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        lines = stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise BenchError(f"{workload} {mode} worker (jobs {jobs}) "
                             f"exited with {process.returncode}")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready_at"] - launched
        result["cpu_s"] = (after.ru_utime + after.ru_stime
                           - before.ru_utime - before.ru_stime)
        return result

    # -- the untraced pass -------------------------------------------------

    def untraced(self, tallies: Dict[str, Tally], deadline: float) -> None:
        workloads = list(tallies)
        smoke = self.args.smoke
        for _ in range(1 if smoke else SETUP_LAUNCHES):
            for workload in workloads:
                result = self.launch(workload, 1, "setup", deadline)
                tallies[workload].add_setup(result)
        rounds = 1 if smoke else ROUNDS
        for _ in range(rounds):
            self.calibrations.append(host_speed())
            for workload in workloads:
                tally = tallies[workload]
                job_counts = WORKLOADS[workload].job_counts
                budget = 0.0 if smoke else \
                    self.args.seconds / (rounds * len(job_counts))
                for jobs in job_counts:
                    result = self.launch(workload, jobs, "timed", deadline,
                                         budget=budget)
                    tally.add(jobs, result)
                    name = ("cell_cycles_per_s" if jobs == 1
                            else "cell_cycles_per_s_j2")
                    rates = [rep["cell_cycles"] / scaled_wall(rep)
                             for rep in result["reps"]]
                    tally.samples[name] += rates
                    tally.round_medians[name].append(
                        statistics.median(rates))
                    tally.samples[f"raw.{name}"] += [
                        rep["cell_cycles"] / own_wall(rep)
                        for rep in result["reps"]]
                    if jobs == 1:
                        tally.add_setup(result)
                        tally.samples["rss_peak_mb"].append(
                            result["rss_mb"])
                        tally.round_medians["rss_peak_mb"].append(
                            result["rss_mb"])
        for workload in workloads:
            if 2 not in WORKLOADS[workload].job_counts:
                # One deployment, one throughput: it is reported under
                # both names so that every workload has every metric.
                tally = tallies[workload]
                for table in (tally.samples, tally.round_medians):
                    for name in ("cell_cycles_per_s",
                                 "raw.cell_cycles_per_s"):
                        if name in table:
                            table[f"{name}_j2"] = table[name]

    # -- the traced pass ---------------------------------------------------

    def traced(self, workload: str, tally: Tally, deadline: float) -> None:
        calib = host_speed()
        self.calibrations.append(calib)
        reps = 1 if self.args.smoke else FIXED_REPS[workload]
        fixed = {jobs: self.launch(workload, jobs, "fixed", deadline,
                                   reps=reps)
                 for jobs in WORKLOADS[workload].job_counts}
        traced = self.launch(workload, 1, "trace", deadline)
        for jobs, result in fixed.items():
            tally.add(jobs, result)
        tally.add(1, traced)

        untraced_s = statistics.median(scaled_wall(rep)
                                       for rep in fixed[1]["reps"])
        cell_cycles = traced["traced"]["cell_cycles"]
        profile = traced["profile"]
        total_s = sum(profile["self_s"].values())
        values: Dict[str, float] = {}
        for layer in LAYERS:
            share = profile["self_s"][layer] / total_s
            values[f"{layer}.self_share"] = share
            values[f"{layer}.self_us_per_cc"] = \
                share * untraced_s / cell_cycles * 1e6
            values[f"{layer}.calls_per_cc"] = \
                profile["calls"][layer] / cell_cycles
        counted = profile["counted"]
        values["sim.events_per_cc"] = counted["events"] / cell_cycles
        values["phy.corrupt_calls_per_cc"] = \
            counted["corrupt"] / cell_cycles
        values["phy.rs_slow_path_frac"] = (
            counted["rs_decode"] / counted["rs_decode_reference"]
            if counted["rs_decode_reference"] else 0.0)
        values["metrics.samples_per_cc"] = counted["samples"] / cell_cycles
        overheads = {
            f"engine.overhead_frac_j{jobs}":
                [rep["engine_overhead"] for rep in result["reps"]]
            for jobs, result in fixed.items()}
        for name, samples in overheads.items():
            values[name] = statistics.median(samples)
        if 2 in fixed:
            values["engine.cpu_ratio_j2"] = \
                fixed[2]["cpu_s"] / fixed[1]["cpu_s"]
        values["trace.overhead"] = scaled_wall(traced["traced"]) / untraced_s
        values["host.calib_mops"] = calib
        values.update(traced["extras"]["metrics"])
        counts = {name: len(samples) for name, samples in overheads.items()}
        counts.update(traced["extras"]["samples"])
        # A workload that does not run a phase reports 0 for it.
        for metric in self.declared["per_layer"]:
            name = metric["name"]
            tally.per_layer[name] = {"value": values.get(name, 0.0),
                                     "n": counts.get(name, 1)}

    # -- the whole run -----------------------------------------------------

    def run(self, workloads: List[str]) -> Dict[str, Tally]:
        tallies = {workload: Tally() for workload in workloads}
        if self.args.trace in (None, 0):
            deadline = time.monotonic() + TIME_LIMIT_S * len(workloads)
            self.untraced(tallies, deadline)
        if self.args.trace in (None, 1):
            for workload in workloads:
                deadline = time.monotonic() + TIME_LIMIT_S
                self.traced(workload, tallies[workload], deadline)
        golden = {}
        if self.args.seed == GOLDEN_SEED and not self.args.smoke:
            with open(os.path.join(BENCH, "golden.json"),
                      encoding="utf-8") as handle:
                golden = json.load(handle)["digests"]
        for workload, tally in tallies.items():
            tally.judge(golden.get(workload))
        return tallies


def fingerprint(calibrations: List[float]) -> Dict[str, Any]:
    revision = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=30).stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "git_rev": revision,
            "loadavg": list(os.getloadavg()),
            "calib_mops": calibrations}


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed repetitions per workload in the "
                             "untraced pass (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only, 1: traced pass only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round: a self-test")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full record here")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        declared = json.load(handle)
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    units = {metric["name"]: metric["unit"]
             for metric in declared["end_to_end"] + declared["per_layer"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    tmp_root = os.path.join(ROOT, ".bench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    harness = Harness(args, declared, tmp)
    try:
        tallies = harness.run(workloads)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    record: Dict[str, Any] = {
        "schema": "osu-mac-bench/1",
        "fingerprint": fingerprint(harness.calibrations),
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "trace": args.trace, "workloads": {}}
    final_metrics: Dict[str, Any] = {}
    noisy: List[str] = []
    for workload, tally in tallies.items():
        end_to_end = {metric["name"]: summarize(
            tally.samples[metric["name"]])
            for metric in declared["end_to_end"]
            if tally.samples.get(metric["name"])}
        noisy += [f"{workload} {name}"
                  for name in too_wide(tally.round_medians, declared)]
        record["workloads"][workload] = {
            "end_to_end": end_to_end, "per_layer": tally.per_layer,
            "samples": dict(tally.samples),
            "round_medians": dict(tally.round_medians),
            "digests": tally.digests(),
            "attempted": tally.attempted, "failed": tally.failed,
            "problems": tally.problems, "findings": tally.findings}
        print(f"== {workload} ==")
        for name, stat in end_to_end.items():
            print(f"  {name:<34} {_format(stat['value']):>12} "
                  f"{units[name]:<10} q1 {_format(stat['q1'])}  "
                  f"q3 {_format(stat['q3'])}  n {stat['n']}")
        for name, stat in tally.per_layer.items():
            print(f"  {name:<34} {_format(stat['value']):>12} "
                  f"{units[name]:<10} n {stat['n']}")
        print(f"  attempted {tally.attempted}, failed {tally.failed}")
        for problem in tally.problems:
            print(f"  FAILED: {problem}")
        for finding in tally.findings:
            print(f"  fuzz finding (not a failure): {finding}")
        shown = dict(end_to_end)
        shown.update(tally.per_layer)
        final_metrics[workload] = {
            name: {"value": stat["value"], "unit": units[name]}
            for name, stat in shown.items()}

    if noisy:
        print(f"bench: warning: per-round medians varied more than their "
              f"bound ({', '.join(noisy)}); this record is marked noisy",
              file=sys.stderr)
    attempted = sum(tally.attempted for tally in tallies.values())
    failed = sum(tally.failed for tally in tallies.values())
    correct = failed == 0
    record.update(correct=correct, attempted=attempted, failed=failed,
                  noisy=bool(noisy), too_wide=noisy)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    metrics = (final_metrics[workloads[0]] if len(workloads) == 1
               else final_metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads, driven through public entry points.

Each workload builds its inputs from the seed in its constructor (that
is its set-up), then runs closed-loop repetitions: the next one starts
when the previous one has finished.  A repetition reports the
cell-cycles it simulated, the operations it attempted and failed, and
a digest of its output for the correctness gate.  Only the call into
the program sits inside ``with meter:``, so digests, checks and the
harness's own bookkeeping are neither timed nor profiled.

Why these four: ``sweep`` is MAC logic on a perfect channel; ``city``
is the only one that runs ``shard/`` and ``network/``; ``fuzz`` puts
most of its time in the PHY (Gilbert-Elliott channels, Reed-Solomon);
``serve`` runs the densest cells with per-cycle journal writes and
publishing.  See README.md for the measured shares.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import Sampler
from layers import Profiled

#: Case shapes of the fuzz workload come from this campaign seed; the
#: workload seed draws each case's simulation seed.  Whole campaigns
#: differ about 2x in host time per cell-cycle (campaign 1: ~1,000,
#: campaign 10: ~2,100 cc/s on the same host), and one seed shared by
#: every case moves all of them together (up to 19% between seeds),
#: either of which would make the headline a function of the seed
#: instead of the code.
FUZZ_SHAPE_SEED = 1

#: Serve cells: the paper's maximum population.
SERVE_DATA_USERS = 14
SERVE_GPS_USERS = 8
SERVE_CELLS = 2
#: Pacing of the open-loop phase, per cell (about 45% of capacity).
SERVE_PERIOD_S = 0.004


def digest_of(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Meter:
    """Times the block it wraps.  With ``sample`` it also samples the
    host's speed meanwhile (``hostspeed.Sampler``); with ``profile`` it
    profiles the block instead (samples would land in the profile)."""

    def __init__(self, profile: bool = False, threads: bool = False,
                 sample: bool = False):
        self.profiled = Profiled(threads) if profile else None
        self.sampler = Sampler() if sample else None
        self.wall_s = 0.0
        self._start = 0.0

    def __enter__(self) -> "Meter":
        if self.profiled is not None:
            self.profiled.__enter__()
        if self.sampler is not None:
            self.sampler.start()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s = time.perf_counter() - self._start
        if self.sampler is not None:
            self.sampler.stop()
        if self.profiled is not None:
            self.profiled.__exit__(*exc)


def _engine_overhead() -> float:
    """1 - busy point time / (jobs x wall) over the engine runs since
    the last reset; 0 when the repetition did not use the engine."""
    from repro.engine.telemetry import telemetry

    wall = sum(record.wall_s * record.jobs
               for record in telemetry.records)
    busy = sum(sum(record.point_seconds) for record in telemetry.records)
    return 1.0 - busy / wall if wall > 0 else 0.0


def check(ops: int, problems: List[str]) -> Dict[str, Any]:
    """Outcome of an untimed check: every problem is a failed op."""
    return {"ops": ops, "failed": len(problems), "problems": problems}


def _reset_engine_log() -> None:
    from repro.engine.telemetry import telemetry

    telemetry.reset()


class Workload:
    """Set-up in the constructor, then warm-up and repetitions."""

    #: The layers run on threads the workload starts (profiled per
    #: thread instead of on the calling thread).
    threaded = False
    #: The ``--jobs`` values the workload's tool is run at.
    job_counts: Tuple[int, ...] = (1, 2)

    def __init__(self, seed: int, jobs: int, smoke: bool, tmp: str):
        self.jobs = jobs
        self.tmp = tmp

    def warm_up(self) -> None:
        raise NotImplementedError

    def rep(self, meter: Meter) -> Dict[str, Any]:
        raise NotImplementedError

    def verify(self) -> Dict[str, Any]:
        """Untimed checks after the timed repetitions."""
        return check(0, [])

    def extras(self) -> Dict[str, Any]:
        """Untraced per-layer measurements of the traced pass.

        ``metrics`` maps per-layer names to values, ``samples`` gives
        the sample count behind a value where it is not 1, ``reps``
        holds repetitions whose output joins the correctness gate and
        ``checks`` the outcome of further checks.
        """
        return {"metrics": {}, "samples": {}, "reps": [], "checks": []}

    def close(self) -> None:
        pass

    @staticmethod
    def record(meter: Meter, cell_cycles: int, ops: int, failed: int,
               digest: str) -> Dict[str, Any]:
        sampler = meter.sampler
        return {"wall_s": meter.wall_s,
                "calib_s": sampler.spent_s if sampler else 0.0,
                "calib_mops": sampler.mops if sampler else None,
                "cell_cycles": cell_cycles, "ops": ops, "failed": failed,
                "digest": digest, "engine_overhead": _engine_overhead()}


# -- engine specs: sweep and fuzz ------------------------------------------


class _EngineSpec(Workload):
    """A workload that is one engine RunSpec, run by ``execute``."""

    spec: Any = None
    warm_spec: Any = None
    policy: Any = None
    cell_cycles = 0

    def _execute(self, spec: Any, cache: Any = False) -> Any:
        from repro.engine import execute

        return execute(spec, jobs=self.jobs, cache=cache,
                       policy=self.policy)

    def warm_up(self) -> None:
        self._execute(self.warm_spec)

    def rep(self, meter: Meter) -> Dict[str, Any]:
        _reset_engine_log()
        with meter:
            result = self._execute(self.spec)
        record = self.record(meter, self.cell_cycles,
                             ops=len(self.spec.points),
                             failed=len(result.failures),
                             digest=digest_of(result.values))
        record["findings"] = self._findings(result.values)
        return record

    def _findings(self, values: List[Any]) -> List[str]:
        return []


class Sweep(_EngineSpec):
    """The fig8 quick grid: 6 loads x 3 seeds, one cell per point."""

    def __init__(self, seed: int, jobs: int, smoke: bool, tmp: str):
        super().__init__(seed, jobs, smoke, tmp)
        from repro.experiments.runner import sweep_spec

        self.warm_spec = sweep_spec(loads=(0.5,), seeds=(seed, seed + 1),
                                    quick=True)
        self.spec = self.warm_spec if smoke else sweep_spec(
            seeds=(seed, seed + 1, seed + 2), quick=True)
        self.cell_cycles = sum(point.config.cycles
                               for point in self.spec.points)

    def extras(self) -> Dict[str, Any]:
        from repro.engine.cache import ResultCache

        cache = ResultCache(os.path.join(self.tmp, "sweep-cache"))
        cold, warm = Meter(), Meter()
        with cold:
            first = self._execute(self.spec, cache=cache)
        with warm:
            second = self._execute(self.spec, cache=cache)
        problems = []
        if second.stats.cache_hits != len(self.spec.points):
            problems.append(f"warm cache hit {second.stats.cache_hits} "
                            f"of {len(self.spec.points)} points")
        if digest_of(first.values) != digest_of(second.values):
            problems.append("cached sweep differs from the computed one")
        return {"metrics": {"engine.cache_cold_s": cold.wall_s,
                            "engine.cache_warm_s": warm.wall_s},
                "samples": {}, "reps": [], "checks": [check(2, problems)]}


class Fuzz(_EngineSpec):
    """25 adversarial cases (3 in the smoke run) under the full oracle
    stack, as ``repro fuzz`` runs them: the case shapes of campaign
    FUZZ_SHAPE_SEED, each with its own simulation seed drawn from the
    workload seed."""

    def __init__(self, seed: int, jobs: int, smoke: bool, tmp: str):
        super().__init__(seed, jobs, smoke, tmp)
        from repro.engine import Point, RunPolicy, RunSpec
        from repro.fuzz.campaign import DEFAULT_TIMEOUT_S
        from repro.fuzz.generator import CampaignGenerator
        from repro.fuzz.runner import run_fuzz_case

        rng = random.Random(seed)
        cases = [case.with_config(seed=rng.randrange(1, 1_000_000))
                 for case in CampaignGenerator(FUZZ_SHAPE_SEED).cases(
                     3 if smoke else 25)]
        points = tuple(Point(fn=run_fuzz_case, config=case,
                             label={"index": case.index})
                       for case in cases)
        self.spec = RunSpec(name=f"bench-fuzz-{seed}", points=points)
        self.warm_spec = RunSpec(name=f"bench-fuzz-{seed}-warm",
                                 points=points[:3])
        self.policy = RunPolicy(timeout_s=DEFAULT_TIMEOUT_S, retries=0)
        self.cell_cycles = sum(case.cycles for case in cases)

    def _findings(self, values: List[Any]) -> List[str]:
        # A verdict that flags a violation is the output this workload
        # exists to produce, so it is reported, not counted as failed.
        return sorted({verdict["bucket"] for verdict in values
                       if verdict is not None and verdict["bucket"]})


# -- city ---------------------------------------------------------------


class City(Workload):
    """``repro city --demo``: 8x8 cells, 8 shards, 6 epochs x 25."""

    def __init__(self, seed: int, jobs: int, smoke: bool, tmp: str):
        super().__init__(seed, jobs, smoke, tmp)
        from repro.shard.config import CityConfig, demo_config

        self.warm_config = CityConfig(rows=2, cols=2, num_shards=2,
                                      epochs=2, cycles_per_epoch=10,
                                      warmup_cycles=5, seed=seed)
        self.config = self.warm_config if smoke else demo_config(seed)
        self.journal_root = os.path.join(tmp, "city")

    def _run(self, config: Any) -> Any:
        from repro.shard.coordinator import run_city

        return run_city(config, jobs=self.jobs, cache=False,
                        checkpoint=True, journal_root=self.journal_root)

    def warm_up(self) -> None:
        self._run(self.warm_config)

    def rep(self, meter: Meter) -> Dict[str, Any]:
        _reset_engine_log()
        with meter:
            result = self._run(self.config)
        config = self.config
        return self.record(meter, config.num_cells * config.total_cycles,
                           ops=config.epochs, failed=0,
                           digest=result.digest)

    def extras(self) -> Dict[str, Any]:
        from repro.shard.shard import ShardSim

        original = ShardSim.run_epoch
        seconds: Dict[int, List[float]] = {}

        def timed_run_epoch(shard: Any, epoch: int) -> Any:
            started = time.perf_counter()
            try:
                return original(shard, epoch)
            finally:
                seconds.setdefault(epoch, []).append(
                    time.perf_counter() - started)

        ShardSim.run_epoch = timed_run_epoch  # type: ignore[method-assign]
        try:
            rep = self.rep(Meter())
        finally:
            ShardSim.run_epoch = original  # type: ignore[method-assign]
        spreads = [(max(times) - min(times)) / max(times)
                   for times in seconds.values() if max(times) > 0]
        imbalance = statistics.fmean(spreads) if spreads else 0.0
        return {"metrics": {"shard.epoch_imbalance_frac": imbalance},
                "samples": {"shard.epoch_imbalance_frac": len(spreads)},
                "reps": [rep], "checks": []}


# -- serve --------------------------------------------------------------


def fault_schedule(seed: int, horizon: int) -> str:
    """A seeded burst every 100 cycles: crash + restart of a data user,
    a GPS fade, then a control-field storm (``parse_faults`` grammar)."""
    rng = random.Random(seed)
    entries = []
    for at in range(10, horizon, 100):
        data = rng.randrange(SERVE_DATA_USERS)
        gps = rng.randrange(SERVE_GPS_USERS)
        entries += [
            f"crash:data-{data}@{at}",
            f"restart:data-{data}@{at + rng.randint(3, 8)}",
            f"fade:gps-{gps}@{at + 12}+{rng.randint(1, 4)}*0.95",
            f"cf_storm:*@{at + 25}+{rng.randint(1, 2)}",
        ]
    return ";".join(entries)


def _serve_config(name: str, cells: int, cycles: int, root: str,
                  period_s: float = 0.0, history: int = 4096) -> Any:
    from repro.serve.config import ServeConfig

    return ServeConfig(name=name, cells=cells, cycle_period_s=period_s,
                       max_cycles=cycles, journal_root=root,
                       history_cycles=history)


def _snapshot(name: str, root: str) -> Optional[Dict[str, Any]]:
    from repro.serve.journal import ServiceJournal

    return ServiceJournal(name, root=root).load().snapshot


def _cell_outcome(status: Dict[str, Any], snapshot: Any) -> Dict[str, Any]:
    return {"state": status["state"], "cycle": status["cycle"],
            "violations": status["invariant_violations_total"],
            "snapshot": snapshot}


class Serve(Workload):
    """``repro serve``: 2 cells of 14 data + 8 GPS users, load 0.8,
    both under one :class:`Supervisor` (one thread per cell).  The tool
    has no ``--jobs``, so this workload runs at jobs 1 only."""

    threaded = True
    job_counts = (1,)

    def __init__(self, seed: int, jobs: int, smoke: bool, tmp: str):
        super().__init__(seed, jobs, smoke, tmp)
        from repro.core.config import CellConfig
        from repro.faults.schedule import parse_faults

        self.warm_cycles = 30
        self.cycles = self.warm_cycles if smoke else 1000
        #: Cycles before and during the retained-memory window.
        self.leak_window = (20, 40) if smoke else (200, 1000)
        horizon = sum(self.leak_window)
        self.cell = CellConfig(
            num_data_users=SERVE_DATA_USERS,
            num_gps_users=SERVE_GPS_USERS, load_index=0.8,
            liveness_lease_cycles=8, eviction_backoff_jitter_cycles=2,
            faults=parse_faults(fault_schedule(seed, horizon)),
            seed=seed)
        self.root = os.path.join(tmp, "serve")
        # Set-up ends when both cells are RUNNING.
        self.warm = self._supervisor(self.warm_cycles)
        self.warm.start()
        while not self.warm.ready and not self.warm.done:
            time.sleep(0.0005)

    def _supervisor(self, cycles: int, period_s: float = 0.0) -> Any:
        from repro.serve.supervisor import Supervisor

        return Supervisor(_serve_config("bench", SERVE_CELLS, cycles,
                                        self.root, period_s), self.cell)

    def warm_up(self) -> None:
        code = self.warm.run()
        self.warm.join()
        if code != 0:
            raise RuntimeError("serve warm-up did not stop cleanly")

    def _run_cells(self, meter: Meter, period_s: float = 0.0
                   ) -> List[Dict[str, Any]]:
        # As ``repro serve`` runs it: the cells' threads and the
        # supervisor's watchdog loop on the main thread, side by side.
        supervisor = self._supervisor(self.cycles, period_s)
        with meter:
            supervisor.start()
            supervisor.run()
        supervisor.join()
        return [_cell_outcome(status, _snapshot(f"bench-{status['name']}",
                                                self.root))
                for status in supervisor.status()["cells"]]

    def rep(self, meter: Meter) -> Dict[str, Any]:
        cells = self._run_cells(meter)
        # A cell that did not stop cleanly fails every cycle it ran.
        failed = sum(cell["cycle"] for cell in cells
                     if cell["state"] != "stopped" or cell["violations"])
        return self.record(meter, SERVE_CELLS * self.cycles,
                           ops=SERVE_CELLS * self.cycles, failed=failed,
                           digest=digest_of([cell["snapshot"]
                                             for cell in cells]))

    def _resume(self) -> Tuple[Dict[str, Any], float]:
        """Replay each cell's journal; the resumed cycle must equal the
        journal's last snapshot cycle.  Returns the check and the
        replayed cycles per second."""
        from repro.serve.service import CellService, ResumeIntegrityError

        config = _serve_config("bench", SERVE_CELLS, self.cycles, self.root)
        problems = []
        replayed = 0
        seconds = 0.0
        for index in range(SERVE_CELLS):
            snapshot = _snapshot(f"bench-cell{index}", self.root) or {}
            service = CellService(
                f"cell{index}",
                replace(self.cell, seed=self.cell.seed + index), config)
            meter = Meter()
            try:
                with meter:
                    service.start(resume=True)
            except ResumeIntegrityError as exc:
                problems.append(f"cell{index} resume: {exc}")
                service.journal.close()
                continue
            seconds += meter.wall_s
            replayed += service.cycle
            if service.cycle != snapshot.get("cycle"):
                problems.append(f"cell{index} resumed at cycle "
                                f"{service.cycle}, snapshot at "
                                f"{snapshot.get('cycle')}")
            service.shutdown(clean=True)
        rate = replayed / seconds if seconds else 0.0
        return check(SERVE_CELLS, problems), rate

    def verify(self) -> Dict[str, Any]:
        return self._resume()[0]

    def _paced(self) -> Tuple[Dict[str, Any], List[float]]:
        """Open loop: each cell released every SERVE_PERIOD_S.  Returns
        the check and each cycle's latency from release to completion
        in ms."""
        from repro.serve.service import CellService

        original = CellService.note_lag
        lags: List[float] = []

        def note_lag(service: Any, lag_s: float) -> None:
            lags.append(lag_s)
            original(service, lag_s)

        CellService.note_lag = note_lag  # type: ignore[method-assign]
        try:
            cells = self._run_cells(Meter(), SERVE_PERIOD_S)
        finally:
            CellService.note_lag = original  # type: ignore[method-assign]
        budget = _serve_config("bench", 1, 1, self.root).lag_budget_s
        problems = [f"paced cycle {lag:.3f}s late, over the {budget}s "
                    f"lag budget" for lag in lags if lag > budget]
        problems += [f"paced cell{index} {cell['state']} with "
                     f"{cell['violations']} invariant violations"
                     for index, cell in enumerate(cells)
                     if cell["state"] != "stopped" or cell["violations"]]
        latency_ms = [(lag + SERVE_PERIOD_S) * 1000.0 for lag in lags]
        return check(len(lags), problems), latency_ms

    def _retained_kb_per_kcycle(self) -> float:
        """Heap growth over the leak window of one cell whose history
        rings (16 cycles) are already full."""
        import gc
        import tracemalloc

        from repro.serve.service import CellService

        before, span = self.leak_window
        service = CellService(
            "cell0", self.cell,
            _serve_config("bench-mem", 1, before + span, self.root,
                          history=16))
        service.start()
        try:
            for _ in range(before):
                service.step_cycle()
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(span):
                    service.step_cycle()
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
        finally:
            service.shutdown(clean=True)
        return grown / 1024.0 / (span / 1000.0)

    def extras(self) -> Dict[str, Any]:
        capacity = self.rep(Meter())
        journal_bytes = sum(
            os.path.getsize(os.path.join(self.root,
                                         f"bench-cell{index}.serve.jsonl"))
            for index in range(SERVE_CELLS))
        resumed, replay_rate = self._resume()
        paced, latency_ms = self._paced()
        late = sum(1 for value in latency_ms
                   if value > SERVE_PERIOD_S * 1000.0)
        metrics = {
            "serve.cycle_latency_p50_ms": statistics.median(latency_ms),
            "serve.cycle_latency_p99_ms":
                statistics.quantiles(latency_ms, n=100)[98],
            "serve.late_cycle_frac": late / len(latency_ms),
            "serve.replay_cycles_per_s": replay_rate,
            "serve.journal_bytes_per_cycle":
                journal_bytes / (SERVE_CELLS * self.cycles),
            "serve.retained_kb_per_kcycle": self._retained_kb_per_kcycle(),
        }
        samples = {name: len(latency_ms) for name in metrics
                   if name.startswith(("serve.cycle_latency",
                                       "serve.late"))}
        return {"metrics": metrics, "samples": samples,
                "reps": [capacity], "checks": [resumed, paced]}

    def close(self) -> None:
        self.warm.request_shutdown()
        self.warm.join()


WORKLOADS = {"sweep": Sweep, "city": City, "fuzz": Fuzz, "serve": Serve}

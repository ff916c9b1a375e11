"""R3: graceful degradation under faults (chaos sweep).

The paper's deployment story (Section 2) is a metropolitan fleet of
buses and portable subscribers: units power-cycle, drive through deep
fades, and silently vanish.  This experiment injects scripted faults --
crash/restart churn, deep-fade windows, control-field storms -- at
increasing intensities and verifies that the protocol *degrades* instead
of breaking: every restarted subscriber re-registers (through the
liveness-lease eviction/recovery path), no UID or GPS slot leaks, and
the continuous invariant monitor (:mod:`repro.faults.invariants`) stays
silent.  The last column of the table must be all zeros.

The fault plan for each grid point is derived deterministically from the
(intensity, churn, seed) coordinate, so points remain cacheable and the
sweep is bit-identical under any ``--jobs`` setting.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence, Tuple

from repro.core.config import CellConfig
from repro.engine import RunSpec, cell_point, execute, group_means
from repro.experiments.runner import ExperimentResult, cycles_for
from repro.faults import schedule

#: Scenario population: Section 5's mid-size cell.
DATA_USERS = 9
GPS_USERS = 4

INTENSITIES = (0.0, 0.5, 1.0)
CHURNS = (0.0, 0.5, 1.0)

#: Registrants silent for this many cycles are deregistered.
LEASE_CYCLES = 8


def fault_plan(intensity: float, churn: float, seed: int,
               cycles: int, warmup: int,
               num_data: int = DATA_USERS,
               num_gps: int = GPS_USERS,
               ) -> Tuple[schedule.FaultSpec, ...]:
    """A deterministic fault schedule for one grid coordinate.

    ``churn`` scales the number of crash/restart pairs; ``intensity``
    scales deep-fade windows and control-field storms.  The plan is a
    pure function of the arguments (its own ``random.Random`` instance
    seeded from the coordinate), so the enclosing config hashes -- and
    caches -- deterministically.
    """
    rng = random.Random(f"chaos/{intensity}/{churn}/{seed}")
    population = ([f"data-{index}" for index in range(num_data)]
                  + [f"gps-{index}" for index in range(num_gps)])
    first = warmup + 2
    # Leave room at the end so every restart can finish re-registering
    # inside the measured window.
    last = max(first + 1, cycles - 3 * LEASE_CYCLES)
    specs = []
    for _ in range(round(churn * 6)):
        target = rng.choice(population)
        down_at = rng.randrange(first, last)
        downtime = rng.randrange(2, 2 * LEASE_CYCLES)
        specs.append(schedule.crash(target, down_at))
        specs.append(schedule.restart(target, down_at + downtime))
    for _ in range(round(intensity * 4)):
        target = rng.choice(population + ["data-*", "gps-*"])
        specs.append(schedule.fade(
            target, rng.randrange(first, last),
            duration_cycles=rng.randrange(1, 4),
            loss=rng.choice((0.8, 0.95, 1.0))))
    for _ in range(round(intensity * 2)):
        specs.append(schedule.cf_storm(
            rng.randrange(first, last),
            duration_cycles=rng.randrange(1, 3)))
    return tuple(specs)


def chaos_config(intensity: float, churn: float, seed: int,
                 quick: bool = False) -> CellConfig:
    cycles, warmup = cycles_for(quick)
    return CellConfig(
        num_data_users=DATA_USERS, num_gps_users=GPS_USERS,
        load_index=0.7, cycles=cycles, warmup_cycles=warmup,
        seed=seed,
        faults=fault_plan(intensity, churn, seed, cycles, warmup),
        liveness_lease_cycles=LEASE_CYCLES,
        check_invariants=True)


def spec(quick: bool = False,
         seeds: Sequence[int] = (1, 2)) -> RunSpec:
    points = []
    for intensity in INTENSITIES:
        for churn in CHURNS:
            for seed in seeds:
                points.append(cell_point(
                    chaos_config(intensity, churn, seed, quick=quick),
                    intensity=intensity, churn=churn, seed=seed))
    return RunSpec(
        name="chaos",
        points=tuple(points),
        reducer=lambda values, pts: group_means(
            values, pts, by=("intensity", "churn")))


def run(quick: bool = False,
        seeds: Sequence[int] = (1, 2),
        jobs: Optional[int] = None,
        cache: Any = None,
        policy: Any = None) -> ExperimentResult:
    # The full (non-quick) grid is the longest sweep in the suite; the
    # result cache keeps each point as it finishes, so a kill/reboot
    # only costs the points that had not yet finished.
    result = execute(spec(quick=quick, seeds=seeds), jobs=jobs,
                     cache=cache, policy=policy)
    rows = [[point["intensity"], point["churn"],
             point["faults_injected"], point["lease_evictions"],
             point["evictions_detected"], point["recoveries"],
             point["mean_recovery_cycles"],
             point["max_recovery_cycles"], point["messages_dropped"],
             point["gps_deadline_misses"], point["utilization"],
             point["invariant_violations"]]
            for point in result.reduced]
    return ExperimentResult(
        experiment_id="R3",
        title="Graceful degradation under fault injection "
              "(rho = 0.7, lease = 8 cycles)",
        headers=["intensity", "churn", "faults", "evictions",
                 "detected", "recoveries", "mean_rec_cy", "max_rec_cy",
                 "msg_lost", "gps_misses", "utilization",
                 "inv_violations"],
        rows=rows,
        notes=("Degradation must be graceful: message losses and GPS "
               "deadline misses may grow with fault intensity and "
               "churn, but every crashed subscriber recovers (the "
               "eviction/re-registration path), utilization stays "
               "positive, and the invariant monitor -- checking the "
               "registry bijection, GPS slot rules, schedule "
               "consistency and radio legality every cycle -- must "
               "report zero violations (last column all zeros)."))

"""Seed-deterministic case generation.

``CampaignGenerator(campaign_seed).case(i)`` is a pure function of
``(campaign_seed, i)``: each call derives a fresh
:class:`~repro.sim.rng.RandomStreams` stream named ``case-<i>``, so the
i-th case is identical no matter how many cases were drawn before it,
in what order, or in which process.  That is the property the engine's
parallel executor and the shrinker lean on.

Cases are *legal but hostile*: every sampled value stays inside the
paper's stated bounds (GPS population <= 8, loss probabilities in
[0, 1], warmup < cycles, ...), while schedules are composed to stress
the recovery machinery -- crash/restart churn, deep fades long enough
to outlive a liveness lease (the eviction-under-fade scenario), and
control-field storms.  Fault schedules are rendered through
:func:`repro.faults.schedule.format_faults` and re-parsed at run time,
so the fuzzer also exercises the user-facing grammar.

``overrides`` force chosen config fields on every case (the known-bug
demo passes ``{"uid_allocation": "lowest_free"}``); sizing decisions
(run length, fault windows) are made *after* overrides apply, so a
forced lease still gets a correctly sized settle tail.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.schedule import (
    FaultSpec,
    cf_storm,
    crash,
    fade,
    format_faults,
    restart,
)
from repro.fuzz.case import MODE_CELL, MODE_SERVE, FuzzCase
from repro.sim.rng import RandomStreams

#: Cycles a cell needs after its last disturbance before the
#: stabilization oracle may judge it (see ``oracles.settle_cycles``).
_TAIL_SLACK = (6, 12)


def settle_cycles(config: Dict[str, Any]) -> int:
    """Worst-case cycles from 'disturbance over' to 'fully recovered'.

    Eviction (lease), detection (cycles or attempts, whichever is
    slower), the randomized re-registration backoff, and a margin for
    contention rounds and the 4-second GPS deadline itself.
    """
    lease = int(config.get("liveness_lease_cycles", 0))
    detect = max(int(config.get("eviction_detect_cycles", 2)),
                 int(config.get("eviction_detect_attempts", 6)))
    jitter = int(config.get("eviction_backoff_jitter_cycles", 0))
    return lease + detect + jitter + 8


class CampaignGenerator:
    """Draws :class:`FuzzCase` values from one campaign seed."""

    def __init__(self, campaign_seed: int,
                 overrides: Optional[Dict[str, Any]] = None,
                 serve_fraction: float = 0.2):
        self.campaign_seed = int(campaign_seed)
        self.overrides = dict(overrides or {})
        self.serve_fraction = float(serve_fraction)

    def cases(self, budget: int) -> List[FuzzCase]:
        return [self.case(index) for index in range(budget)]

    def case(self, index: int) -> FuzzCase:
        # A fresh factory per call: RandomStreams caches live Random
        # objects, so reusing one across calls would make case(i)
        # depend on what was drawn before it.
        rng = RandomStreams(self.campaign_seed).stream(f"case-{index}")
        mode = (MODE_SERVE if rng.random() < self.serve_fraction
                else MODE_CELL)
        config = self._sample_config(rng, mode)
        config.update(self.overrides)
        settle = settle_cycles(config)

        ops: Tuple[Tuple[int, str, str], ...] = ()
        if mode == MODE_SERVE:
            specs: List[FaultSpec] = []
            ops, last_end = self._sample_ops(rng, config)
        else:
            specs, last_end = self._sample_faults(rng, config)
        tail = rng.randint(*_TAIL_SLACK)
        config["cycles"] = max(config["warmup_cycles"] + 30,
                               last_end + settle + tail)

        return FuzzCase(
            campaign_seed=self.campaign_seed,
            index=index,
            mode=mode,
            config_items=tuple(sorted(config.items())),
            faults_text=format_faults(specs),
            ops=ops,
            # Recorded only; see FuzzCase.differential.
            differential=mode == MODE_CELL and index % 8 == 0)

    # -- configuration ----------------------------------------------------

    def _sample_config(self, rng: random.Random,
                       mode: str) -> Dict[str, Any]:
        config: Dict[str, Any] = {
            "num_data_users": rng.randint(2, 10),
            "num_gps_users": rng.randint(0, 6),
            "load_index": round(rng.uniform(0.2, 1.1), 3),
            "message_size": rng.choice(
                ["uniform", "uniform", "fixed"]),
            "seed": rng.randrange(1, 1_000_000),
            "warmup_cycles": rng.randint(8, 14),
        }
        if rng.random() < 0.2:
            config["forward_load_index"] = round(
                rng.uniform(0.1, 0.5), 3)
        model = rng.choice(["perfect", "perfect", "perfect", "perfect",
                            "ge", "ge", "iid", "outage"])
        config["error_model"] = model
        if model == "outage":
            config["outage_loss"] = round(rng.uniform(0.005, 0.05), 4)
        elif model == "iid":
            config["symbol_error_rate"] = round(
                rng.uniform(0.001, 0.01), 4)
        if mode == MODE_CELL and rng.random() < 0.2:
            config["registration_mode"] = "poisson"
        if rng.random() < 0.15:
            config["use_second_cf"] = False
        if rng.random() < 0.15:
            config["dynamic_slot_adjustment"] = False
        if rng.random() < 0.15:
            config["data_in_contention"] = False
        if mode == MODE_SERVE:
            # The service refuses to run leaseless (leaves would never
            # be cleaned up); sample inside its legal band.
            lease = rng.choice([8, 8, 10, 12])
        else:
            lease = rng.choice([0, 6, 8, 8, 10, 12])
        config["liveness_lease_cycles"] = lease
        if lease and rng.random() < 0.25:
            config["eviction_backoff_jitter_cycles"] = rng.choice([2, 4])
        return config

    # -- scheduled faults (cell mode) -------------------------------------

    def _sample_faults(self, rng: random.Random,
                       config: Dict[str, Any],
                       ) -> Tuple[List[FaultSpec], int]:
        """A schedule plus the cycle its last disturbance is over."""
        start = config["warmup_cycles"] + 4
        lease = config["liveness_lease_cycles"]
        specs: List[FaultSpec] = []
        last_end = start

        def window_cycle() -> int:
            return rng.randint(start, start + 24)

        for _ in range(rng.choice([0, 1, 1, 2])):
            target = self._specific_target(rng, config)
            if target is None:
                continue
            at = window_cycle()
            if rng.random() < 0.85:
                back = at + rng.randint(2, 6)
                specs += [crash(target, at), restart(target, back)]
                last_end = max(last_end, back)
            else:
                specs.append(crash(target, at))
                # Never restarted: the lease (if any) must reap it.
                last_end = max(last_end, at + lease + 2)

        for _ in range(rng.choice([0, 1, 1, 2])):
            target = self._fade_target(rng, config)
            at = window_cycle()
            if lease and rng.random() < 0.35:
                # Outlive the lease: the base station evicts a
                # subscriber that is alive but unheard -- the scenario
                # UID-recycling bugs live in.
                duration = rng.randint(lease + 1, lease + 4)
            else:
                duration = rng.randint(1, 4)
            loss = 1.0 if rng.random() < 0.5 \
                else round(rng.uniform(0.6, 0.99), 2)
            channel = rng.choice(["both", "both", "forward", "reverse"])
            specs.append(fade(target, at, duration_cycles=duration,
                              loss=loss, channel=channel))
            last_end = max(last_end, at + duration)

        if rng.random() < 0.3:
            at = window_cycle()
            duration = rng.randint(1, 2)
            specs.append(cf_storm(at, duration_cycles=duration,
                                  target=rng.choice(["*", "data-*"])))
            last_end = max(last_end, at + duration)

        specs.sort(key=lambda spec: (spec.at_cycle, spec.kind,
                                     spec.target))
        return specs, last_end

    def _specific_target(self, rng: random.Random,
                         config: Dict[str, Any]) -> Optional[str]:
        """One concrete subscriber name, or None if the cell is empty."""
        pools = []
        if config["num_data_users"]:
            pools.append(("data", config["num_data_users"]))
        if config["num_gps_users"]:
            pools.append(("gps", config["num_gps_users"]))
        if not pools:
            return None
        service, population = rng.choice(pools)
        return f"{service}-{rng.randrange(population)}"

    def _fade_target(self, rng: random.Random,
                     config: Dict[str, Any]) -> str:
        choices = ["data-*", "*"]
        if config["num_gps_users"]:
            choices.append("gps-*")
        specific = self._specific_target(rng, config)
        if specific is not None:
            choices += [specific, specific]
        return rng.choice(choices)

    # -- runtime control ops (serve mode) ---------------------------------

    def _sample_ops(self, rng: random.Random, config: Dict[str, Any],
                    ) -> Tuple[Tuple[Tuple[int, str, str], ...], int]:
        lease = config["liveness_lease_cycles"]
        count = rng.randint(1, 4)
        cycles = sorted(rng.randint(4, 40) for _ in range(count))
        ops: List[Tuple[int, str, str]] = []
        last_end = cycles[-1]
        for cycle in cycles:
            kind = rng.choice(["load", "load", "join", "join",
                               "leave", "faults", "faults"])
            if kind == "load":
                argument = str(rng.choice([0.5, 1.5, 2.0, 3.0]))
            elif kind == "join":
                argument = rng.choice(["data", "gps"])
            elif kind == "leave":
                target = self._specific_target(rng, config)
                if target is None:
                    continue
                argument = target
                last_end = max(last_end, cycle + lease + 2)
            else:
                specs, rel_end = self._relative_burst(rng, config)
                argument = format_faults(specs)
                last_end = max(last_end, cycle + rel_end)
            ops.append((cycle, kind, argument))
        return tuple(ops), last_end

    def _relative_burst(self, rng: random.Random,
                        config: Dict[str, Any],
                        ) -> Tuple[List[FaultSpec], int]:
        """A small fault fragment with cycles relative to 'now'."""
        lease = config["liveness_lease_cycles"]
        roll = rng.random()
        target = self._specific_target(rng, config) or "data-*"
        if roll < 0.4:
            at = rng.randint(1, 2)
            back = at + rng.randint(2, 5)
            return [crash(target, at), restart(target, back)], back
        if roll < 0.8:
            at = rng.randint(0, 2)
            duration = (rng.randint(lease + 1, lease + 3)
                        if rng.random() < 0.4
                        else rng.randint(1, 4))
            loss = 1.0 if rng.random() < 0.5 \
                else round(rng.uniform(0.6, 0.99), 2)
            spec = fade(rng.choice([target, "data-*", "*"]), at,
                        duration_cycles=duration, loss=loss,
                        channel=rng.choice(["both", "reverse"]))
            return [spec], at + duration
        at = rng.randint(0, 2)
        duration = rng.randint(1, 2)
        return [cf_storm(at, duration_cycles=duration)], at + duration

"""City-scale sharded simulation: epoch-synchronized cell shards.

Partitions a grid of OSU-MAC cells into shard groups, runs each shard
on its own simulator (all in one process, or spread over long-lived
worker processes that keep their shards across epochs), and advances
the city in lockstep epochs with deterministic cross-shard envelopes at
every barrier.  See ``docs/SCALING.md`` for the model and the
determinism contract.
"""

from repro.shard.config import (
    EIN_CELL_STRIDE,
    CityConfig,
    MobilityConfig,
    demo_config,
)
from repro.shard.coordinator import (
    CityCoordinator,
    CityIntegrityError,
    CityResult,
    city_digest,
    epoch_digest,
    run_city,
)
from repro.shard.mobility import MobilityEvent, build_schedule
from repro.shard.shard import ShardSim, report_digest

__all__ = [
    "EIN_CELL_STRIDE",
    "CityConfig",
    "CityCoordinator",
    "CityIntegrityError",
    "CityResult",
    "MobilityConfig",
    "MobilityEvent",
    "ShardSim",
    "build_schedule",
    "city_digest",
    "demo_config",
    "epoch_digest",
    "report_digest",
    "run_city",
]

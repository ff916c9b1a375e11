"""Configuration of a sharded city: cell grid, shard layout, EINs.

A *city* is a rectangular grid of ``rows x cols`` OSU-MAC cells joined
by the wired backbone (the paper's Section 2.2 wide-area system), far
too many to run on one simulator.  The grid is partitioned into
``num_shards`` contiguous *shard groups*; each shard simulates its
cells on its own :class:`~repro.sim.core.Simulator` and the whole city
advances in lockstep **epochs** of ``cycles_per_epoch`` MAC cycles
(see :mod:`repro.shard.coordinator`).

Everything here is a pure function of the config, because the
coordinator and every shard worker process must derive the exact same
layout: which cells a shard owns, which shard owns a cell,
every subscriber's EIN and home cell, and the grid adjacency the
mobility model walks over.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cell import DATA_EIN_BASE, EIN_CELL_STRIDE, GPS_EIN_BASE
from repro.core.config import CellConfig
from repro.phy import timing


@dataclass(frozen=True)
class MobilityConfig:
    """The seed-deterministic mobility model (bus routes over the grid).

    The first ``movers_per_cell`` data subscribers and the first
    ``gps_movers_per_cell`` GPS units of every cell ride routes: random
    walks over grid-adjacent cells with seeded exponential dwell times.
    ``hops_per_epoch`` is the expected number of cell transitions per
    mover per epoch; ``rush_multipliers`` (one factor per epoch,
    truncated or 1.0-padded) shapes that rate into e.g. a rush-hour
    wave.
    """

    movers_per_cell: int = 1
    gps_movers_per_cell: int = 0
    hops_per_epoch: float = 0.5
    rush_multipliers: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.movers_per_cell < 0 or self.gps_movers_per_cell < 0:
            raise ValueError("mover counts must be non-negative")
        if self.hops_per_epoch < 0:
            raise ValueError("hops_per_epoch must be non-negative")
        if self.rush_multipliers is not None:
            object.__setattr__(self, "rush_multipliers",
                               tuple(float(m)
                                     for m in self.rush_multipliers))
            if any(m < 0 for m in self.rush_multipliers):
                raise ValueError("rush multipliers must be >= 0")

    def multiplier(self, epoch: int) -> float:
        if not self.rush_multipliers:
            return 1.0
        if epoch < len(self.rush_multipliers):
            return self.rush_multipliers[epoch]
        return 1.0


@dataclass(frozen=True)
class CityConfig:
    """All knobs of one sharded city run."""

    rows: int = 4
    cols: int = 4
    num_shards: int = 2
    #: Per-cell template.  ``load_index``/``forward_load_index`` must be
    #: zero (the city generates the addressed workload itself) and its
    #: ``cycles``/``warmup_cycles`` are overridden by the epoch grid
    #: below.
    cell: CellConfig = field(default_factory=lambda: CellConfig(
        num_data_users=4, num_gps_users=1, load_index=0.0))
    #: Target uplink load index per cell for the addressed workload.
    load_index: float = 0.4
    #: Fraction of messages addressed to a data subscriber elsewhere in
    #: the city (the rest terminate at the local base station).
    inter_cell_fraction: float = 0.5
    backbone_latency: float = 0.005
    backbone_bandwidth: float = 1_250_000.0
    epochs: int = 4
    cycles_per_epoch: int = 25
    warmup_cycles: int = 10
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("the cell grid must be at least 1x1")
        if not 1 <= self.num_shards <= self.num_cells:
            raise ValueError(
                f"num_shards must be in [1, {self.num_cells}]")
        if not 0.0 <= self.inter_cell_fraction <= 1.0:
            raise ValueError("inter_cell_fraction must be in [0, 1]")
        if self.epochs < 1 or self.cycles_per_epoch < 1:
            raise ValueError("epochs and cycles_per_epoch must be >= 1")
        if self.total_cycles <= self.warmup_cycles:
            raise ValueError(
                "epochs * cycles_per_epoch must exceed warmup_cycles")
        if self.cell.load_index != 0.0 \
                or self.cell.forward_load_index != 0.0:
            raise ValueError(
                "set CityConfig.load_index, not cell.load_index "
                "(the city generates the addressed workload itself)")
        if self.cell.full_fidelity:
            raise ValueError(
                "city mode is logical-object only (its EIN blocks "
                "exceed the 16-bit wire field full_fidelity packs)")
        if self.cell.faults:
            raise ValueError("city mode does not take cell-level fault "
                             "schedules (yet)")
        if self.mobility.movers_per_cell > self.cell.num_data_users:
            raise ValueError("movers_per_cell exceeds num_data_users")
        if self.mobility.gps_movers_per_cell > self.cell.num_gps_users:
            raise ValueError(
                "gps_movers_per_cell exceeds num_gps_users")

    # -- derived layout -----------------------------------------------------

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    @property
    def total_cycles(self) -> int:
        return self.epochs * self.cycles_per_epoch

    @property
    def epoch_duration(self) -> float:
        return self.cycles_per_epoch * timing.CYCLE_LENGTH

    @property
    def duration(self) -> float:
        return self.total_cycles * timing.CYCLE_LENGTH

    def cell_config(self) -> CellConfig:
        """The effective per-cell config (epoch grid folded in)."""
        return dataclasses.replace(
            self.cell, cycles=self.total_cycles,
            warmup_cycles=self.warmup_cycles, seed=self.seed)

    def shard_of_cell(self, cell_id: int) -> int:
        """The shard owning ``cell_id`` (contiguous balanced blocks)."""
        if not 0 <= cell_id < self.num_cells:
            raise ValueError(f"no such cell {cell_id}")
        return cell_id * self.num_shards // self.num_cells

    def cells_of_shard(self, shard_id: int) -> List[int]:
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"no such shard {shard_id}")
        return [cell for cell in range(self.num_cells)
                if self.shard_of_cell(cell) == shard_id]

    def neighbors(self, cell_id: int) -> List[int]:
        """Grid-adjacent cells (4-neighbourhood), sorted."""
        row, col = divmod(cell_id, self.cols)
        out = []
        if row > 0:
            out.append(cell_id - self.cols)
        if row < self.rows - 1:
            out.append(cell_id + self.cols)
        if col > 0:
            out.append(cell_id - 1)
        if col < self.cols - 1:
            out.append(cell_id + 1)
        return sorted(out)

    # -- subscriber identity ------------------------------------------------

    def data_ein(self, cell_id: int, index: int) -> int:
        return DATA_EIN_BASE + cell_id * EIN_CELL_STRIDE + index

    def gps_ein(self, cell_id: int, index: int) -> int:
        return GPS_EIN_BASE + cell_id * EIN_CELL_STRIDE + index

    def home_cell_of_ein(self, ein: int) -> int:
        return ein // EIN_CELL_STRIDE

    def is_gps_ein(self, ein: int) -> bool:
        return ein % EIN_CELL_STRIDE >= GPS_EIN_BASE

    def all_data_eins(self) -> List[int]:
        return [self.data_ein(cell, index)
                for cell in range(self.num_cells)
                for index in range(self.cell.num_data_users)]

    def all_eins(self) -> List[int]:
        out = self.all_data_eins()
        out.extend(self.gps_ein(cell, index)
                   for cell in range(self.num_cells)
                   for index in range(self.cell.num_gps_users))
        return sorted(out)

    def mover_eins(self) -> List[int]:
        """EINs riding mobility routes, in canonical order."""
        movers = [self.data_ein(cell, index)
                  for cell in range(self.num_cells)
                  for index in range(self.mobility.movers_per_cell)]
        movers.extend(
            self.gps_ein(cell, index)
            for cell in range(self.num_cells)
            for index in range(self.mobility.gps_movers_per_cell))
        return sorted(movers)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON round-trippable projection; :meth:`digest` hashes it."""
        out = dataclasses.asdict(self)
        out["cell"] = dataclasses.asdict(self.cell)
        out["cell"]["faults"] = []
        mobility = dataclasses.asdict(self.mobility)
        if mobility["rush_multipliers"] is not None:
            mobility["rush_multipliers"] = list(
                mobility["rush_multipliers"])
        out["mobility"] = mobility
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CityConfig":
        payload = dict(data)
        cell = dict(payload.pop("cell"))
        cell["faults"] = ()
        mobility = dict(payload.pop("mobility"))
        if mobility.get("rush_multipliers") is not None:
            mobility["rush_multipliers"] = tuple(
                mobility["rush_multipliers"])
        return cls(cell=CellConfig(**cell),
                   mobility=MobilityConfig(**mobility), **payload)

    def digest(self) -> str:
        """Stable config fingerprint (journal identity, run naming)."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def demo_config(seed: int = 1) -> CityConfig:
    """The ``repro city --demo`` scenario: a rush-hour bus wave.

    64 cells in an 8x8 grid over 8 shards, 448 subscribers (5 data + 2
    GPS buses per cell), with mobility ramping through a rush-hour peak
    and back down across 6 epochs.
    """
    return CityConfig(
        rows=8, cols=8, num_shards=8,
        cell=CellConfig(num_data_users=5, num_gps_users=2,
                        load_index=0.0),
        load_index=0.45, inter_cell_fraction=0.5,
        epochs=6, cycles_per_epoch=25, warmup_cycles=10,
        mobility=MobilityConfig(
            movers_per_cell=2, gps_movers_per_cell=1,
            hops_per_epoch=0.4,
            rush_multipliers=(0.25, 1.0, 3.0, 3.0, 1.0, 0.25)),
        seed=seed)

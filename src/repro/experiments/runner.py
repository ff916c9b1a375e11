"""Shared experiment machinery: load sweeps and result containers.

The sweep itself is delegated to :mod:`repro.engine`: every (load, seed)
pair becomes one engine point, so sweeps run serial or parallel
(``jobs``) and hit the on-disk result cache transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.cell import run_cell
from repro.core.config import CellConfig
from repro.engine import RunSpec, cell_point, execute, group_means
from repro.engine.spec import Point, mean_of_summaries
from repro.metrics import CellStats

#: The load indices the paper sweeps (Section 5).
PAPER_LOADS = (0.3, 0.5, 0.8, 0.9, 1.0, 1.1)

#: Scenario defaults matching Section 5: up to 8 GPS buses, 5-14 data
#: users, variable-length (uniform 40-500 byte) e-mails.
EVAL_DEFAULTS = dict(num_data_users=9, num_gps_users=2,
                     message_size="uniform")


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    notes: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        """Plain-text rendering of the table."""
        columns = [self.headers] + [
            [_fmt(cell) for cell in row] for row in self.rows]
        widths = [max(len(row[index]) for row in columns)
                  for index in range(len(self.headers))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(header.ljust(width) for header, width
                               in zip(self.headers, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append("  ".join(
                _fmt(cell).ljust(width)
                for cell, width in zip(row, widths)))
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)

    def series(self, column: str) -> List[Any]:
        """One column of the table by header name."""
        index = self.headers.index(column)
        return [row[index] for row in self.rows]

    def to_csv(self) -> str:
        """The table as CSV text (for offline plotting/analysis)."""
        import csv
        import io
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv())


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def run_config(config: CellConfig) -> CellStats:
    return run_cell(config)


def cycles_for(quick: bool) -> "tuple[int, int]":
    """(cycles, warmup) for quick (bench) vs full experiment runs."""
    return (140, 25) if quick else (400, 40)


def sweep_cell_config(load: float, seed: int, quick: bool = False,
                      **config_overrides) -> CellConfig:
    """The Section-5 scenario config for one (load, seed) point."""
    cycles, warmup = cycles_for(quick)
    kwargs = dict(EVAL_DEFAULTS)
    kwargs.update(config_overrides)
    kwargs.setdefault("cycles", cycles)
    kwargs.setdefault("warmup_cycles", warmup)
    return CellConfig(load_index=load, seed=seed, **kwargs)


def _cell_summary_with_metric(payload) -> Dict[str, float]:
    """Task: cell summary plus a caller-supplied derived metric."""
    config, metric = payload
    stats = run_cell(config)
    summary = stats.summary()
    summary["metric"] = metric(stats)
    return summary


def sweep_spec(loads: Sequence[float] = PAPER_LOADS,
               seeds: Sequence[int] = (1, 2, 3),
               quick: bool = False,
               metric: Optional[Callable[[CellStats], float]] = None,
               **config_overrides) -> RunSpec:
    """The declarative spec behind :func:`sweep_loads`."""
    points = []
    for load in loads:
        for seed in seeds:
            config = sweep_cell_config(load, seed, quick=quick,
                                       **config_overrides)
            if metric is None:
                points.append(cell_point(config, load=load, seed=seed))
            else:
                points.append(Point(fn=_cell_summary_with_metric,
                                    config=(config, metric),
                                    label=dict(load=load, seed=seed)))
    return RunSpec(
        name="sweep_loads",
        points=tuple(points),
        reducer=lambda values, pts: group_means(values, pts, by=("load",)))


def _observed_reducer(values: Sequence[Dict[str, Any]],
                      points: Sequence[Point]) -> List[Dict[str, Any]]:
    """The normal per-load table, folded from observed results."""
    return group_means([value["summary"] for value in values],
                       points, by=("load",))


def observed_sweep_spec(loads: Sequence[float] = PAPER_LOADS,
                        seeds: Sequence[int] = (1, 2, 3),
                        quick: bool = False,
                        profile: bool = False,
                        **config_overrides) -> RunSpec:
    """:func:`sweep_spec` with per-cycle observability attached.

    Each point runs :func:`repro.obs.observe.run_cell_observed`, so its
    value carries the summary *plus* the per-cycle timeline, the
    timeline digest, and (with ``profile=True``) the per-function
    profile rows -- all JSON-serializable, so caching and parallel
    execution work exactly as for a plain sweep.  The
    reducer still yields the familiar per-load table.
    """
    from repro.obs.observe import run_cell_observed

    points = []
    for load in loads:
        for seed in seeds:
            config = sweep_cell_config(load, seed, quick=quick,
                                       **config_overrides)
            points.append(Point(fn=run_cell_observed,
                                config=(config, bool(profile)),
                                label=dict(load=load, seed=seed)))
    return RunSpec(name="sweep_loads_observed", points=tuple(points),
                   reducer=_observed_reducer)


def sweep_loads(loads: Sequence[float] = PAPER_LOADS,
                seeds: Sequence[int] = (1, 2, 3),
                quick: bool = False,
                metric: Optional[Callable[[CellStats], float]] = None,
                jobs: Optional[int] = None,
                cache: Any = None,
                policy: Any = None,
                **config_overrides) -> List[Dict[str, Any]]:
    """Run the Section-5 scenario across load indices.

    Returns one dict per load with every headline metric averaged over
    the seeds (plus ``load``); when ``metric`` is given its value is
    added under the key ``"metric"``.  ``jobs`` selects the engine
    executor; ``cache`` controls the on-disk result cache (a ``metric``
    callable disables caching, since its code is not part of the cache
    key -- and must be a module-level function to run with jobs > 1).
    ``policy`` is an optional :class:`repro.engine.RunPolicy` with the
    resilience knobs (timeouts, retries, fail-fast).
    """
    spec = sweep_spec(loads=loads, seeds=seeds, quick=quick,
                      metric=metric, **config_overrides)
    if metric is not None:
        cache = False
    return execute(spec, jobs=jobs, cache=cache, policy=policy).reduced


def average_summaries(summaries: List[Dict[str, float]]) -> Dict[str, float]:
    """Field-wise mean of several summary dicts.

    Keys are intersected across the summaries, so a field present in
    only some of them (e.g. ``metric`` set for part of the seeds) is
    dropped instead of raising ``KeyError``.
    """
    return mean_of_summaries(summaries)

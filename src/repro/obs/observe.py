"""Engine-compatible observed cell runs.

:func:`run_cell_observed` is a module-level task function (picklable by
reference, JSON-serializable result) so observed sweeps run through the
normal engine machinery: parallel executors, the result cache and
retries all work unchanged, and the per-cycle timeline rides back to
the parent alongside the summary.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.cell import build_cell, finalize_run
from repro.obs.profiler import profile_call
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TimelineRecorder


def observe_cell(config, profile: bool = False,
                 registry: "MetricsRegistry | None" = None
                 ) -> Dict[str, Any]:
    """Build, instrument, and run one cell; returns the observed data.

    The result dict carries ``summary`` (the normal
    :meth:`~repro.metrics.CellStats.summary`), ``timeline`` (one dict
    per sampled cycle), ``obs`` (the timeline digest), and -- when
    ``profile`` is set -- ``profile`` (the per-function rows of
    :func:`~repro.obs.profiler.profile_call` over the event loop).
    """
    run = build_cell(config)
    recorder = TimelineRecorder(run, registry=registry)
    rows = None
    if profile:
        _, rows = profile_call(run.sim.run, until=config.duration)
    else:
        run.sim.run(until=config.duration)
    finalize_run(run)
    result: Dict[str, Any] = {
        "summary": run.stats.summary(),
        "timeline": recorder.to_dicts(),
        "obs": recorder.summary(),
    }
    if rows is not None:
        result["profile"] = rows
    return result


def run_cell_observed(payload: Tuple[Any, bool]) -> Dict[str, Any]:
    """Engine task: ``payload`` is ``(CellConfig, profile_flag)``."""
    config, profile = payload
    return observe_cell(config, profile=bool(profile))

"""Per-function profiles: where did the host seconds go?

:func:`profile_call` runs one call under the standard library's
``cProfile`` and returns, beside its result, one JSON-ready row per
function it ran, keyed ``path:line(function)``:

* ``calls`` -- how many times the function was called;
* ``self_s`` -- seconds spent in the function itself, excluding the
  functions it called, so the self times of all rows partition the run;
* ``total_s`` -- seconds spent in the function including its callees.

Paths inside the package start at ``repro/``, so row keys do not depend
on where the checkout lives and a sweep's per-point rows, profiled in
worker processes, add up with :func:`merge_rows`.  :func:`format_rows`
prints the heaviest rows by self time (``--profile``).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Tuple

#: One profile: ``path:line(function)`` -> calls, self_s and total_s.
Rows = Dict[str, Dict[str, Any]]

#: The directory that holds the ``repro`` package.
_PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))) + os.sep
_PACKAGE_PREFIX = _PACKAGE_PARENT + "repro" + os.sep


def profile_call(fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Tuple[Any, Rows]:
    """Run ``fn(*args, **kwargs)`` under cProfile; return its result and
    the profile's rows."""
    # Imported here: an observed run without --profile imports this
    # module too, and only a profiled run needs these two.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    rows: Rows = {}
    for (path, line, name), (_, calls, self_s, total_s, _) in \
            pstats.Stats(profiler).stats.items():
        if path.startswith(_PACKAGE_PREFIX):
            path = path[len(_PACKAGE_PARENT):]
        rows[f"{path}:{line}({name})"] = {
            "calls": calls, "self_s": self_s, "total_s": total_s}
    return result, rows


def merge_rows(total: Rows, rows: Rows) -> None:
    """Add one profile's ``rows`` into the running ``total``."""
    for key, row in rows.items():
        entry = total.setdefault(
            key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += row["calls"]
        entry["self_s"] += row["self_s"]
        entry["total_s"] += row["total_s"]


def format_rows(rows: Rows, limit: int = 25) -> str:
    """The ``limit`` heaviest rows by self time, as a table."""
    summed = sum(row["self_s"] for row in rows.values())
    heaviest = sorted(rows.items(),
                      key=lambda item: (-item[1]["self_s"], item[0]))
    lines = ["   self s   share     calls    total s  function"]
    for key, row in heaviest[:limit]:
        share = row["self_s"] / summed if summed else 0.0
        lines.append(f"{row['self_s']:9.4f}  {share:6.1%}  "
                     f"{row['calls']:8d}  {row['total_s']:9.4f}  {key}")
    lines.append(f"({min(limit, len(rows))} of {len(rows)} functions; "
                 f"share is of the summed self time, {summed:.4f} s)")
    return "\n".join(lines)

"""Exclusive host time and call counts per ``src/repro`` layer.

The traced pass runs one repetition under the standard library's
deterministic profiler (``cProfile``), which records every call.  This
module folds the resulting ``pstats`` table into layers:

* a Python function belongs to the package of its file,
  ``src/repro/<package>/...``;
* a C builtin has no file, so its self time and calls are charged to
  the layer of the function that called it, edge by edge, using the
  per-caller times ``pstats`` keeps;
* frames outside ``src/repro`` go to ``random`` (the ``random``
  module), ``serialization`` (``json``, ``pickle``, ``hashlib``) or
  ``stdlib`` (everything else, the harness's own frames included).
"""

from __future__ import annotations

import cProfile
import pstats
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

LAYERS = ("sim", "phy", "core", "metrics", "traffic", "faults", "obs",
          "engine", "shard", "network", "serve", "fuzz", "random",
          "serialization", "stdlib")

#: ``src/repro`` packages outside the layer list, folded into the
#: layer they serve: ``experiments`` only builds specs and reduces
#: engine results.
_FOLDED = {"experiments": "engine"}

#: Standard-library modules (besides the ``json`` package) that count
#: as serialization.
_SERIALIZATION = ("pickle", "_compat_pickle", "copyreg", "hashlib")

#: (file suffix, function name) of the functions counted one by one;
#: every method of that name in the file counts.
COUNTED = {
    "events": ("repro/sim/events.py", "_process"),
    "corrupt": ("repro/phy/errors.py", "corrupt"),
    "rs_decode": ("repro/phy/rs.py", "decode"),
    "rs_decode_reference": ("repro/phy/rs.py", "decode_reference"),
    "samples": ("repro/metrics/stats.py", "push"),
}

Func = Tuple[str, int, str]


def layer_of_file(filename: str) -> str:
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    index = path.rfind(marker)
    if index >= 0:
        package = path[index + len(marker):].split("/", 1)[0]
        package = _FOLDED.get(package, package)
        return package if package in LAYERS else "stdlib"
    parent, _, module = path.rpartition("/")
    if module == "random.py":
        return "random"
    if parent.endswith("/json") or module[:-3] in _SERIALIZATION:
        return "serialization"
    return "stdlib"


def _is_builtin(func: Func) -> bool:
    return func[0] == "~"


def attribute(stats: Dict[Func, Any]) -> Dict[str, Any]:
    """Self seconds and calls per layer, plus the counted functions."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    resolved: Dict[Func, str] = {}

    def layer_of(func: Func, seen: Tuple[Func, ...] = ()) -> str:
        if func in resolved:
            return resolved[func]
        if not _is_builtin(func):
            layer = layer_of_file(func[0])
        else:
            # A builtin calling back into a builtin: take the layer of
            # its heaviest caller.
            callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            ranked = sorted(callers.items(),
                            key=lambda item: (-item[1][2], item[0]))
            layer = "stdlib"
            for caller, _edge in ranked:
                if caller not in seen:
                    layer = layer_of(caller, seen + (func,))
                    break
        resolved[func] = layer
        return layer

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        if not _is_builtin(func):
            layer = layer_of(func)
            self_s[layer] += tt
            calls[layer] += nc
            continue
        edge_tt = 0.0
        edge_calls = 0
        for caller, (edge_nc, _edge_cc, edge_time, _) in callers.items():
            layer = layer_of(caller, (func,))
            self_s[layer] += edge_time
            calls[layer] += edge_nc
            edge_tt += edge_time
            edge_calls += edge_nc
        # Calls made at the top of the profiled region have no caller.
        self_s["stdlib"] += max(0.0, tt - edge_tt)
        calls["stdlib"] += max(0, nc - edge_calls)

    counted = {}
    for name, (suffix, function) in COUNTED.items():
        counted[name] = sum(
            value[1] for func, value in stats.items()
            if func[2] == function
            and func[0].replace("\\", "/").endswith(suffix))
    return {"self_s": self_s, "calls": calls, "counted": counted}


class Profiled:
    """Context manager that profiles the calls made inside it.

    With ``threads=True`` the calling thread is left alone and every
    thread started inside the block gets its own profiler on the
    per-thread CPU clock, so a thread waiting for the interpreter lock
    is not charged for the time another thread runs.
    """

    def __init__(self, threads: bool = False):
        self.threads = threads
        self._profilers: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self.table: Optional[Dict[Func, Any]] = None

    def _start_in_thread(self, *_args: Any) -> None:
        profiler = cProfile.Profile(time.thread_time)
        with self._lock:
            self._profilers.append(profiler)
        profiler.enable()

    def __enter__(self) -> "Profiled":
        if self.threads:
            threading.setprofile(self._start_in_thread)
        else:
            profiler = cProfile.Profile()
            self._profilers.append(profiler)
            profiler.enable()
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self.threads:
            threading.setprofile(None)  # type: ignore[arg-type]
        else:
            self._profilers[0].disable()
        with self._lock:
            profilers = list(self._profilers)
        merged = pstats.Stats(profilers[0])
        for profiler in profilers[1:]:
            merged.add(profiler)
        self.table = merged.stats  # type: ignore[attr-defined]

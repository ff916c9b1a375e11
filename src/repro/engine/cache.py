"""On-disk result cache for run points.

Results live under ``.repro-cache/`` (override with ``REPRO_CACHE_DIR``)
as one JSON file per point, named by the point's content hash
(:func:`repro.engine.hashing.point_key`).  Only JSON-serializable task
results are cached; anything else is recomputed every run.

The cache is also what resumes a killed sweep: ``execute`` stores each
point the moment it finishes, so rerunning the same command recomputes
only the points that were still unfinished.  A stored value keeps the
key order it was computed in, so a resumed sweep prints the same bytes
as an uninterrupted one.

Hygiene: writes go through ``mkstemp`` + rename, so a process killed
mid-write can orphan a ``*.tmp`` file -- stale ones are scavenged the
first time a cache root is opened in a process (and by ``clear()``).
An entry that exists but no longer parses is quarantined by renaming it
to ``<key>.corrupt`` (and counted), so one torn write cannot make its
key miss forever while hiding the evidence.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Optional, Set, Tuple


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


#: ``*.tmp`` files older than this are presumed orphaned by a dead
#: writer and removed by the startup scavenge.
STALE_TMP_S = 600.0

#: Cache roots already scavenged by this process.
_SCAVENGED_ROOTS: Set[str] = set()


class ResultCache:
    """A directory of ``<content-hash>.json`` result files."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.quarantined = 0
        root_key = os.path.abspath(self.root)
        if root_key not in _SCAVENGED_ROOTS:
            _SCAVENGED_ROOTS.add(root_key)
            self.scavenge()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; corrupt or absent entries miss.

        Corrupt entries are additionally quarantined (renamed to
        ``<key>.corrupt``) so the key is recomputed and rewritten
        instead of missing on every future run.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                value = json.load(handle)
        except OSError:
            return False, None
        except ValueError:
            self._quarantine(path)
            return False, None
        return True, value

    def _quarantine(self, path: str) -> None:
        try:
            os.replace(path, os.path.splitext(path)[0] + ".corrupt")
        except OSError:
            return
        self.quarantined += 1

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` if JSON-serializable; atomic via rename."""
        try:
            text = json.dumps(value)
        except (TypeError, ValueError):
            return False
        os.makedirs(self.root, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_path, self._path(key))
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return False
        return True

    def clear(self) -> int:
        """Delete every entry, orphaned temp file, and quarantined
        corpse; returns the number of files removed."""
        removed = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if name.endswith((".json", ".tmp", ".corrupt")):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def scavenge(self, max_age_s: float = STALE_TMP_S) -> int:
        """Remove orphaned ``*.tmp`` files older than ``max_age_s``.

        ``put`` writes through ``mkstemp`` + rename; a process dying
        between the two leaves the temp file behind forever.  Young
        temp files are left alone -- they may belong to a concurrent
        live writer.
        """
        removed = 0
        now = time.time()
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.root, name)
            try:
                if now - os.path.getmtime(path) >= max_age_s:
                    os.unlink(path)
                    removed += 1
            except OSError:
                pass
        return removed


def resolve_cache(cache: Any = None) -> Optional[ResultCache]:
    """Interpret the ``cache`` knob every experiment entry point takes.

    ``None`` or ``True`` -> on; ``False`` -> off; a
    :class:`ResultCache` instance -> used as-is.
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is False:
        return None
    return ResultCache()

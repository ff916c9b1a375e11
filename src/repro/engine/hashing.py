"""Content hashing for cache keys.

A cached result is valid only for (a) the exact point config that
produced it and (b) the exact simulator code that ran it.  The config
side uses :func:`canonical` -- a stable, recursive JSON projection of
dataclasses and plain objects; the code side uses
:func:`code_fingerprint` -- a digest over every source file of the
``repro`` package, so any code change invalidates the whole cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Callable

#: Bump to invalidate all caches on engine-format changes.
CACHE_SCHEMA = 1

_CODE_FINGERPRINT: str = ""


def canonical(obj: Any) -> Any:
    """A JSON-serializable, order-stable projection of ``obj``.

    Dataclasses and plain ``__dict__`` objects are projected to
    ``[qualified-class-name, {field: canonical(value)}]`` so that two
    configs hash equal iff they are the same type with the same field
    values.  Unknown objects fall back to ``repr``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonical(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return [_type_name(obj), fields]
    if isinstance(obj, dict):
        return {str(key): canonical(value)
                for key, value in sorted(obj.items(), key=lambda kv:
                                         str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(item) for item in obj)
    if callable(obj) and hasattr(obj, "__qualname__"):
        # Named callables (task functions) project to their qualified
        # name; callable instances (task wrappers) have none and fall
        # through to their type and fields, so wrappers around
        # different functions never collide.
        return f"{obj.__module__}.{obj.__qualname__}"
    if hasattr(obj, "__dict__"):
        fields = {key: canonical(value)
                  for key, value in sorted(vars(obj).items())
                  if not key.startswith("_")}
        return [_type_name(obj), fields]
    return repr(obj)


def _type_name(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (cached per process).

    Any edit to the package -- simulator, protocols, experiments --
    changes the fingerprint and therefore invalidates cached results.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT:
        return _CODE_FINGERPRINT
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(package_root)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, package_root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def point_key(fn: Callable, config: Any) -> str:
    """The cache key of one run point.

    Hash of (schema, code, task, config).  The code fingerprint covers
    every source file of the package, the event kernel included, so
    any kernel edit changes every key.
    """
    payload = json.dumps(
        [CACHE_SCHEMA, code_fingerprint(), canonical(fn), canonical(config)],
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

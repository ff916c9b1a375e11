"""Stepping shards: the one epoch step, in-process or in a worker process.

:func:`step_shards` advances a group of
:class:`~repro.shard.shard.ShardSim` through one epoch: each shard
applies its inbound envelopes, then runs the epoch, in shard order.
The coordinator calls it in-process at ``--jobs 1``.  At ``--jobs N``
each of ``min(N, shards)`` long-lived worker processes
(:func:`shard_worker`) builds its shards once and calls the same
function at every barrier, so moving shards into processes changes only
how envelopes and reports travel.

The workers form an engine
:class:`~repro.engine.executors.WorkerPool`, so each exits when its
pipe reaches EOF: the coordinator closed it, or died.  A worker answers
one request per barrier.  A request names a first epoch and carries the
inbound envelopes of one or more consecutive epochs, plus the report
digests already received for all but the last of them.  The worker
steps through every epoch in the request and replies with the last
one's reports.  A live barrier sends one epoch; a worker respawned
after a crash is sent the whole history at once, so it replays up to
the current epoch, and the first replayed report whose digest differs
becomes its reply instead.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.engine.executors import Handler
from repro.shard.config import CityConfig
from repro.shard.shard import ShardSim

Envelopes = List[Dict[str, Any]]
#: A worker's reply: its shards' reports and, beside them, each shard's
#: ``run_epoch`` seconds -- or, after a divergent replay, the reason.
Reply = Union[Tuple[List[Dict[str, Any]], List[float]], str]


def step_shards(shards: Sequence[ShardSim], epoch: int,
                inbound: Sequence[Envelopes]
                ) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Advance ``shards`` through ``epoch``; ``inbound[i]`` is the
    merged envelope set for ``shards[i]``.

    Returns the epoch reports and each shard's ``run_epoch`` wall time.
    The times travel beside the reports, never inside them: reports are
    digested and journaled.
    """
    reports = []
    seconds = []
    for shard, envelopes in zip(shards, inbound):
        shard.apply_inbound(epoch, envelopes)
        started = time.perf_counter()
        reports.append(shard.run_epoch(epoch))
        seconds.append(time.perf_counter() - started)
    return reports, seconds


def _advance(shards: Sequence[ShardSim], first: int,
             inbound: Sequence[Sequence[Envelopes]],
             expected: Sequence[Sequence[str]]) -> Reply:
    """Step epochs ``first, first + 1, ...``; ``expected[k]`` holds the
    report digests that epoch ``first + k`` must reproduce."""
    reports: List[Dict[str, Any]] = []
    seconds: List[float] = []
    for offset, envelopes in enumerate(inbound):
        epoch = first + offset
        reports, seconds = step_shards(shards, epoch, envelopes)
        if offset >= len(expected):
            continue
        for report, digest in zip(reports, expected[offset]):
            if report["digest"] != digest:
                return (f"shard {report['shard']} replayed epoch {epoch} "
                        f"to {report['digest'][:12]} after its worker "
                        f"died, but had reported {digest[:12]}")
    return reports, seconds


def shard_worker(city: CityConfig, shard_ids: Sequence[int]) -> Handler:
    """Worker set-up: build the shards once.  The handler answers one
    request ``(first, inbound, expected)`` per barrier."""
    shards = [ShardSim(city, shard_id) for shard_id in shard_ids]

    def step(request: Tuple[int, Sequence[Sequence[Envelopes]],
                            Sequence[Sequence[str]]]) -> Reply:
        return _advance(shards, *request)

    return step

"""The city coordinator: lockstep epochs, barrier merges, checkpoints.

The coordinator advances every shard one epoch at a time.  At each
barrier it gathers the shards' canonically ordered outbound envelopes,
merges them into one city-wide sequence, applies the handoffs to its
own directory, re-addresses in-flight messages against that directory
(the destination may have moved again), and distributes the next
epoch's inbound sets: handoffs broadcast to every shard (they double as
directory updates), messages to the shard owning the destination cell.

Every shard lives for the whole run and is stepped by one function,
:func:`~repro.shard.worker.step_shards`.  With ``min(jobs, shards)``
equal to 1 the shards live in this process; otherwise they live in that
many long-lived workers of the engine's worker pool
(:class:`ShardWorkers`; shard ``s`` on worker ``s % workers``), which
receive only their shards' inbound envelopes at each barrier and send
back the epoch reports.

A worker that dies is respawned within the barrier: it replays its
shards' recorded inbound history and must reproduce every report
digest it had already returned (else :class:`CityIntegrityError`)
before it runs the current epoch.  A second death in the same epoch
aborts the run.

Every committed barrier is appended to a :class:`CityJournal`.  A
killed run restarted with ``resume=True`` replays deterministically
from epoch 0 (live shards cannot be unpickled mid-flight) and
*verifies* each recomputed epoch digest against the journaled one
before continuing past the crash point -- so a resumed run either
bit-matches the original or fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.executors import WorkerPool
from repro.shard.config import CityConfig
from repro.shard.envelopes import HANDOFF, canonical_order
from repro.shard.journal import CityJournal
from repro.shard.shard import ShardSim, report_digest
from repro.shard.worker import Envelopes, Reply, shard_worker, step_shards


class CityIntegrityError(RuntimeError):
    """A replayed epoch did not reproduce its recorded digest."""


@dataclass
class CityResult:
    """What a city run returns."""

    config: CityConfig
    digest: str
    epoch_digests: List[str]
    #: Final cumulative counters summed over shards (nested dicts merged
    #: key-wise).
    counters: Dict[str, Any]
    #: Final ein -> cell directory.
    directory: Dict[int, int]
    #: Last epoch's full shard reports, in shard order.
    reports: List[Dict[str, Any]] = field(default_factory=list)
    #: Epochs verified against a resumed journal (0 on a fresh run).
    verified_epochs: int = 0
    wall_s: float = 0.0


def epoch_digest(reports: List[Dict[str, Any]]) -> str:
    """One digest per barrier: the shard digests, in shard order."""
    blob = json.dumps([report["digest"] for report in reports],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def city_digest(config: CityConfig, epoch_digests: List[str],
                directory: Dict[int, int]) -> str:
    """The city-state digest the determinism contract is stated over."""
    blob = json.dumps({
        "config": config.digest(),
        "epochs": epoch_digests,
        "directory": [[ein, cell]
                      for ein, cell in sorted(directory.items())],
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def aggregate_counters(reports: List[Dict[str, Any]]
                       ) -> Dict[str, Any]:
    """Sum cumulative shard counters (nested dicts merged key-wise)."""
    total: Dict[str, Any] = {}
    for report in reports:
        for key, value in report["counters"].items():
            if isinstance(value, dict):
                bucket = total.setdefault(key, {})
                for sub_key, sub_value in value.items():
                    bucket[sub_key] = bucket.get(sub_key, 0) + sub_value
            else:
                total[key] = total.get(key, 0) + value
    return total


class ShardWorkers(WorkerPool):
    """The city's shards on an engine :class:`WorkerPool`.

    Shard ``s`` lives on worker ``s % count``, which builds its shards
    once (:func:`~repro.shard.worker.shard_worker`).  This layer adds
    the placement, the history replay of a respawned worker and the
    digest checks that replay must pass.
    """

    def __init__(self, config: CityConfig, count: int):
        self.config = config
        #: Per epoch: every shard's report digest, which a respawned
        #: worker's replay must reproduce.
        self._digests: List[List[str]] = []
        super().__init__(count, shard_worker, "city-shard-worker")

    def _shard_ids(self, worker: int) -> List[int]:
        return list(range(worker, self.config.num_shards, self.count))

    def _setup_args(self, worker: int) -> Tuple[Any, ...]:
        return self.config, self._shard_ids(worker)

    def _send(self, worker: int, first: int, epoch: int,
              history: List[List[Envelopes]]) -> None:
        """Ask ``worker`` to step its shards through epochs
        ``first..epoch``, verifying every one before ``epoch``."""
        shard_ids = self._shard_ids(worker)
        self.send(worker, (
            first,
            [[history[shard_id][k] for shard_id in shard_ids]
             for k in range(first, epoch + 1)],
            [[self._digests[k][shard_id] for shard_id in shard_ids]
             for k in range(first, epoch)]))

    def _replay(self, worker: int, epoch: int,
                history: List[List[Envelopes]]) -> Reply:
        """Respawn the dead ``worker`` and have it replay its shards'
        history through ``epoch``."""
        self.restart(worker)
        self._send(worker, 0, epoch, history)
        try:
            return self.recv(worker)
        except EOFError:
            raise RuntimeError(
                f"shard worker {worker} (shards "
                f"{self._shard_ids(worker)}) died twice in epoch "
                f"{epoch}; the journal is kept for --resume") from None

    def step(self, epoch: int, history: List[List[Envelopes]]
             ) -> Tuple[List[Dict[str, Any]], List[float]]:
        """Run ``epoch`` on every shard; ``history[s][k]`` is shard
        ``s``'s inbound envelope set at epoch ``k``.  Returns the
        reports and per-shard seconds in shard order."""
        for worker in range(self.count):
            self._send(worker, epoch, epoch, history)
        reports: List[Dict[str, Any]] = [{}] * self.config.num_shards
        seconds = [0.0] * self.config.num_shards
        for worker in range(self.count):
            try:
                reply = self.recv(worker)
            except EOFError:
                reply = self._replay(worker, epoch, history)
            if isinstance(reply, str):
                raise CityIntegrityError(reply)
            worker_reports, worker_seconds = reply
            for shard_id, report, spent in zip(self._shard_ids(worker),
                                               worker_reports,
                                               worker_seconds):
                reports[shard_id] = report
                seconds[shard_id] = spent
        self._digests.append([report["digest"] for report in reports])
        return reports, seconds


class CityCoordinator:
    """Run one sharded city to completion (or resume one)."""

    def __init__(self, config: CityConfig, jobs: int = 1,
                 checkpoint: bool = True,
                 journal_root: Optional[str] = None,
                 resume: bool = False):
        self.config = config
        self.jobs = jobs
        self.checkpoint = checkpoint
        self.journal_root = journal_root
        self.resume = resume
        self.directory: Dict[int, int] = {
            ein: config.home_cell_of_ein(ein)
            for ein in config.all_eins()}
        #: Per shard: the inbound envelope list of every epoch so far.
        self._history: List[List[Envelopes]] = [
            [] for _ in range(config.num_shards)]
        self._metric_prev: Dict[int, Dict[str, Any]] = {}

    # -- barrier merge ------------------------------------------------------

    def _merge(self, reports: List[Dict[str, Any]]
               ) -> List[List[Dict[str, Any]]]:
        """Merge outbound envelopes into each shard's next inbound set."""
        config = self.config
        merged = canonical_order(
            [env for report in reports for env in report["outbound"]])
        inbound: List[List[Dict[str, Any]]] = [
            [] for _ in range(config.num_shards)]
        for env in merged:
            if env["type"] == HANDOFF:
                self.directory[env["ein"]] = env["to_cell"]
                for shard_inbound in inbound:
                    shard_inbound.append(env)
        for env in merged:
            if env["type"] != HANDOFF:
                # Re-address against the post-handoff directory: the
                # mover the message chases may have crossed another
                # boundary this very epoch.
                dest_cell = self.directory.get(env["dest_ein"],
                                               env["dest_cell"])
                if dest_cell != env["dest_cell"]:
                    env = dict(env)
                    env["dest_cell"] = dest_cell
                inbound[config.shard_of_cell(dest_cell)].append(env)
        return [canonical_order(envs) for envs in inbound]

    # -- the run loop -------------------------------------------------------

    def run(self) -> CityResult:
        started = time.perf_counter()
        config = self.config
        journal: Optional[CityJournal] = None
        journaled: List[Dict[str, Any]] = []
        if self.checkpoint:
            journal = CityJournal(config.digest(),
                                  root=self.journal_root)
            journal.acquire()
            if self.resume:
                journaled = journal.load()
            # Rewrite from a clean header: a fresh run drops any stale
            # journal; a resumed one re-commits its verified prefix as
            # each epoch replays below.
            journal.reset()
            journal.write_header()

        epoch_digests: List[str] = []
        verified = 0
        reports: List[Dict[str, Any]] = []
        next_inbound: List[Envelopes] = [
            [] for _ in range(config.num_shards)]
        count = min(self.jobs or 1, config.num_shards)
        workers: Optional[ShardWorkers] = None
        shards: List[ShardSim] = []
        try:
            if count > 1:
                workers = ShardWorkers(config, count)
            else:
                shards = [ShardSim(config, shard_id)
                          for shard_id in range(config.num_shards)]
            for epoch in range(config.epochs):
                for shard_id in range(config.num_shards):
                    self._history[shard_id].append(
                        next_inbound[shard_id])
                if workers is None:
                    reports, seconds = step_shards(shards, epoch,
                                                   next_inbound)
                else:
                    reports, seconds = workers.step(epoch,
                                                    self._history)
                lag = max(seconds) - min(seconds) \
                    if len(seconds) > 1 else 0.0
                digest = epoch_digest(reports)
                if epoch < len(journaled):
                    committed = journaled[epoch].get("epoch_digest")
                    if digest != committed:
                        raise CityIntegrityError(
                            f"epoch {epoch} replayed to {digest[:12]} "
                            f"but the journal committed "
                            f"{str(committed)[:12]}; refusing to "
                            f"resume past a divergent prefix")
                    verified += 1
                if journal is not None:
                    journal.append_epoch(epoch, reports, digest)
                epoch_digests.append(digest)
                self._publish_metrics(reports, lag)
                next_inbound = self._merge(reports)
        except BaseException:
            if workers is not None:
                workers.close(kill=True)
            if journal is not None:
                journal.close()  # keep the journal for a resume
            raise
        if workers is not None:
            workers.close()
        if journal is not None:
            journal.discard()
        return CityResult(
            config=config,
            digest=city_digest(config, epoch_digests, self.directory),
            epoch_digests=epoch_digests,
            counters=aggregate_counters(reports),
            directory=dict(self.directory),
            reports=reports,
            verified_epochs=verified,
            wall_s=time.perf_counter() - started)

    # -- observability ------------------------------------------------------

    def _publish_metrics(self, reports: List[Dict[str, Any]],
                         barrier_lag: float) -> None:
        from repro.obs.registry import default_registry

        registry = default_registry()
        if not registry.enabled:
            return
        handoffs = registry.counter(
            "osu_city_handoffs_total",
            "Cell transitions completed, by destination cell",
            ("shard", "cell", "kind"))
        pages = registry.counter(
            "osu_city_buffered_pages_total",
            "Messages buffered (and paged) awaiting registration",
            ("shard",))
        backbone = registry.counter(
            "osu_city_backbone_bytes_total",
            "Message bytes crossing shard boundaries",
            ("src_shard", "dst_shard"))
        messages = registry.counter(
            "osu_city_messages_total",
            "City messages by disposition", ("shard", "kind"))
        lag_gauge = registry.gauge(
            "osu_city_epoch_barrier_lag_seconds",
            "Wall-clock spread between fastest and slowest shard "
            "at the last epoch barrier")
        scalar_kinds = (
            ("messages_routed", "routed"),
            ("messages_forwarded", "forwarded"),
            ("messages_delivered_local", "delivered_local"),
            ("messages_cross_shard", "cross_shard"),
            ("messages_received", "received"),
            ("messages_hop_dropped", "hop_dropped"),
        )
        for report in reports:
            shard = str(report["shard"])
            current = report["counters"]
            previous = self._metric_prev.get(report["shard"], {})
            for key, kind in scalar_kinds:
                delta = current[key] - previous.get(key, 0)
                if delta:
                    messages.labels(shard, kind).inc(delta)
            delta = (current["messages_buffered_for_registration"]
                     - previous.get("messages_buffered_for_registration",
                                    0))
            if delta:
                pages.labels(shard).inc(delta)
            prev_cells = previous.get("handoffs_by_cell", {})
            for key, count in current["handoffs_by_cell"].items():
                delta = count - prev_cells.get(key, 0)
                if delta:
                    cell, kind = key.split("/")
                    handoffs.labels(shard, cell, kind).inc(delta)
            prev_bytes = previous.get("cross_shard_bytes", {})
            for dst, total in current["cross_shard_bytes"].items():
                delta = total - prev_bytes.get(dst, 0)
                if delta:
                    backbone.labels(shard, dst).inc(delta)
            self._metric_prev[report["shard"]] = current
        lag_gauge.set(barrier_lag)


def run_city(config: CityConfig, jobs: int = 1, cache: Any = False,
             checkpoint: bool = True,
             journal_root: Optional[str] = None,
             resume: bool = False) -> CityResult:
    """Build a coordinator and run the city to completion.

    ``cache`` is accepted for existing callers and has no effect: city
    epochs never pass through the engine result cache.
    """
    coordinator = CityCoordinator(
        config, jobs=jobs, checkpoint=checkpoint,
        journal_root=journal_root, resume=resume)
    return coordinator.run()


__all__ = [
    "CityCoordinator",
    "CityIntegrityError",
    "CityResult",
    "ShardWorkers",
    "aggregate_counters",
    "city_digest",
    "epoch_digest",
    "report_digest",
    "run_city",
]

"""Tests for the sharded city: config, mobility, envelopes, digests.

The acceptance property lives here: a sharded city run (16 cells, 2
shards, mobility enabled) produces a bit-identical city-state digest
under ``jobs=1`` (all shards in this process) and ``jobs=2`` (shards
in long-lived worker processes), after a crash + ``resume=True``, and
after a worker is killed and respawned mid-run.
"""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.config import CellConfig
from repro.obs.registry import MetricsRegistry, set_default_registry
from repro.shard import (
    CityConfig,
    CityCoordinator,
    CityIntegrityError,
    MobilityConfig,
    ShardSim,
    build_schedule,
    demo_config,
    run_city,
)
from repro.shard import coordinator as coordinator_module
from repro.shard.envelopes import (
    canonical_order,
    handoff_envelope,
    message_envelope,
)
from repro.shard.journal import CityJournal


def city_config(**overrides) -> CityConfig:
    """16 cells, 2 shards, mobility on: the acceptance-scale city."""
    params = dict(
        rows=4, cols=4, num_shards=2,
        cell=CellConfig(num_data_users=2, num_gps_users=1,
                        load_index=0.0),
        load_index=0.3, inter_cell_fraction=0.5,
        epochs=3, cycles_per_epoch=12, warmup_cycles=4,
        mobility=MobilityConfig(movers_per_cell=1,
                                hops_per_epoch=1.0),
        seed=7)
    params.update(overrides)
    return CityConfig(**params)


@pytest.fixture(scope="module")
def serial_result():
    """One serial run of the acceptance city, shared across tests."""
    # cache= is a no-op that run_city keeps accepting for old callers.
    return run_city(city_config(), jobs=1, cache=False,
                    checkpoint=False)


def assert_reaped(pids):
    """Every pid was a child of this process and has been waited for:
    not running, and not a zombie either."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# -- configuration -----------------------------------------------------------


class TestCityConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            city_config(num_shards=17)  # more shards than cells
        with pytest.raises(ValueError):
            city_config(num_shards=0)
        with pytest.raises(ValueError):
            city_config(cell=CellConfig(num_data_users=2,
                                        load_index=0.4))
        with pytest.raises(ValueError):
            city_config(cell=CellConfig(num_data_users=2,
                                        load_index=0.0,
                                        full_fidelity=True))
        with pytest.raises(ValueError):
            city_config(epochs=1, cycles_per_epoch=4,
                        warmup_cycles=10)
        with pytest.raises(ValueError):
            city_config(mobility=MobilityConfig(movers_per_cell=5))

    def test_shards_partition_the_grid(self):
        config = city_config(num_shards=3)
        owned = [cell for shard in range(3)
                 for cell in config.cells_of_shard(shard)]
        assert sorted(owned) == list(range(config.num_cells))
        for shard in range(3):
            for cell in config.cells_of_shard(shard):
                assert config.shard_of_cell(cell) == shard

    def test_grid_neighbors(self):
        config = city_config()  # 4x4
        assert config.neighbors(0) == [1, 4]
        assert config.neighbors(5) == [1, 4, 6, 9]
        assert config.neighbors(15) == [11, 14]

    def test_ein_blocks_are_disjoint_and_invertible(self):
        config = city_config()
        eins = config.all_eins()
        assert len(eins) == len(set(eins)) == 16 * 3
        for ein in eins:
            home = config.home_cell_of_ein(ein)
            assert 0 <= home < config.num_cells
        assert config.is_gps_ein(config.gps_ein(3, 0))
        assert not config.is_gps_ein(config.data_ein(3, 0))

    def test_round_trip_preserves_digest(self):
        config = demo_config(seed=3)
        clone = CityConfig.from_dict(
            json.loads(json.dumps(config.to_dict())))
        assert clone == config
        assert clone.digest() == config.digest()

    def test_rush_multiplier_shapes_the_rate(self):
        mobility = MobilityConfig(rush_multipliers=(0.5, 2.0))
        assert mobility.multiplier(0) == 0.5
        assert mobility.multiplier(1) == 2.0
        assert mobility.multiplier(5) == 1.0  # padded past the tuple


# -- mobility ----------------------------------------------------------------


class TestMobility:
    def test_schedule_is_deterministic(self):
        config = city_config()
        assert build_schedule(config) == build_schedule(config)
        other = build_schedule(city_config(seed=8))
        assert other != build_schedule(config)

    def test_schedule_walks_the_grid(self):
        config = city_config()
        events = build_schedule(config)
        assert events, "no mobility at hops_per_epoch=1.0"
        assert events == sorted(events,
                                key=lambda ev: (ev.time, ev.ein))
        position = {}
        for event in events:
            here = position.get(event.ein,
                                config.home_cell_of_ein(event.ein))
            assert event.from_cell == here
            assert event.to_cell in config.neighbors(here)
            assert 0 < event.time <= config.duration
            position[event.ein] = event.to_cell

    def test_zero_rate_means_no_events(self):
        config = city_config(
            mobility=MobilityConfig(movers_per_cell=1,
                                    hops_per_epoch=0.0))
        assert build_schedule(config) == []

    def test_adding_a_mover_preserves_existing_routes(self):
        base = city_config()
        more = city_config(
            cell=CellConfig(num_data_users=3, num_gps_users=1,
                            load_index=0.0),
            mobility=MobilityConfig(movers_per_cell=2,
                                    hops_per_epoch=1.0))
        base_routes = {}
        for event in build_schedule(base):
            base_routes.setdefault(event.ein, []).append(event)
        more_routes = {}
        for event in build_schedule(more):
            more_routes.setdefault(event.ein, []).append(event)
        for ein, route in base_routes.items():
            assert more_routes[ein] == route


# -- envelopes ---------------------------------------------------------------


class TestEnvelopes:
    def test_canonical_order_is_permutation_invariant(self):
        envelopes = [
            message_envelope(dest_ein=7, dest_cell=1, message_id=3,
                             size_bytes=10, created_at=0.5,
                             src_cell=0, sent_at=1.5),
            message_envelope(dest_ein=7, dest_cell=1, message_id=2,
                             size_bytes=10, created_at=0.4,
                             src_cell=0, sent_at=1.5),
            handoff_envelope(ein=9, from_cell=0, to_cell=1,
                             depart_time=2.0, hop=1, state={}),
            handoff_envelope(ein=8, from_cell=2, to_cell=3,
                             depart_time=2.0, hop=1, state={}),
        ]
        reference = canonical_order(envelopes)
        for seed in range(5):
            shuffled = list(envelopes)
            random.Random(seed).shuffle(shuffled)
            assert canonical_order(shuffled) == reference

    def test_handoffs_sort_before_messages(self):
        message = message_envelope(dest_ein=7, dest_cell=1,
                                   message_id=1, size_bytes=10,
                                   created_at=0.0, src_cell=0,
                                   sent_at=0.1)
        handoff = handoff_envelope(ein=9, from_cell=0, to_cell=1,
                                   depart_time=99.0, hop=1, state={})
        assert canonical_order([message, handoff]) \
            == [handoff, message]


# -- the determinism contract ------------------------------------------------


class TestCityDeterminism:
    def test_jobs1_and_jobs2_digests_are_identical(self, serial_result):
        pooled = run_city(city_config(), jobs=2, checkpoint=False)
        assert pooled.digest == serial_result.digest
        assert pooled.epoch_digests == serial_result.epoch_digests
        assert pooled.counters == serial_result.counters
        assert pooled.directory == serial_result.directory
        # More jobs than shards: one worker per shard.
        assert run_city(city_config(), jobs=4,
                        checkpoint=False).digest == serial_result.digest

    def test_the_city_actually_exercises_the_barrier(self, serial_result):
        counters = serial_result.counters
        assert counters["handoffs_out"] > 0, "no cross-shard handoff"
        assert counters["messages_cross_shard"] > 0
        assert counters["messages_received"] > 0
        assert counters["handoffs_in"] <= counters["handoffs_out"]

    def test_different_seed_different_digest(self, serial_result):
        other = run_city(city_config(seed=8), jobs=1, checkpoint=False)
        assert other.digest != serial_result.digest

    def test_directory_tracks_every_subscriber(self, serial_result):
        config = city_config()
        assert sorted(serial_result.directory) == config.all_eins()
        for cell in serial_result.directory.values():
            assert 0 <= cell < config.num_cells

    def test_single_shard_city_runs(self, monkeypatch):
        config = city_config(rows=2, cols=2, num_shards=1,
                             epochs=2)
        result = run_city(config, jobs=1, checkpoint=False)
        assert result.counters["messages_cross_shard"] == 0
        assert result.counters["handoffs_out"] == 0

        def no_workers(*args, **kwargs):
            raise AssertionError("started workers for a single shard")

        # One shard stays in this process whatever --jobs says.
        monkeypatch.setattr(coordinator_module, "ShardWorkers",
                            no_workers)
        assert run_city(config, jobs=2,
                        checkpoint=False).digest == result.digest


# -- crash + resume ----------------------------------------------------------


def at_barrier(coordinator, action):
    """Call ``action(epoch)`` at every barrier merge of ``coordinator``,
    after the epoch's reports are in and before they are merged."""
    merge = coordinator._merge

    def merge_after_action(reports):
        action(reports[0]["epoch"])
        return merge(reports)

    coordinator._merge = merge_after_action


def crash_after_epochs(config, epochs, journal_root, jobs=1):
    """Run a checkpointing city and die at the Nth barrier merge."""

    class Crash(Exception):
        pass

    def crash(epoch):
        if epoch + 1 >= epochs:
            raise Crash()

    coordinator = CityCoordinator(config, jobs=jobs, checkpoint=True,
                                  journal_root=journal_root)
    at_barrier(coordinator, crash)
    with pytest.raises(Crash):
        coordinator.run()


class TestCityResume:
    def test_resume_reproduces_the_digest(self, serial_result,
                                          tmp_path):
        config = city_config()
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            crash_after_epochs(config, 2, str(root), jobs=jobs)
            journal = root / f"city-{config.digest()[:16]}.jsonl"
            assert journal.exists(), "crash did not leave a journal"
            resumed = run_city(config, jobs=jobs, checkpoint=True,
                               journal_root=str(root), resume=True)
            assert resumed.digest == serial_result.digest
            assert resumed.verified_epochs == 2
            assert not journal.exists(), \
                "journal kept after clean finish"

    def test_resume_rejects_a_divergent_journal(self, tmp_path):
        config = city_config()
        crash_after_epochs(config, 2, str(tmp_path))
        journal = tmp_path / f"city-{config.digest()[:16]}.jsonl"
        lines = journal.read_text().splitlines()
        record = json.loads(lines[1])
        record["epoch_digest"] = "0" * 64
        lines[1] = json.dumps(record, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CityIntegrityError):
            run_city(config, jobs=1, checkpoint=True,
                     journal_root=str(tmp_path), resume=True)

    def test_torn_tail_is_dropped_on_load(self, tmp_path):
        config = city_config()
        crash_after_epochs(config, 2, str(tmp_path))
        journal = CityJournal(config.digest(), root=str(tmp_path))
        committed = journal.load()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"epoch": 2, "epoch_digest": "tr')  # torn
        assert journal.load() == committed

    def test_mismatched_config_is_not_resumed(self, tmp_path):
        config = city_config()
        crash_after_epochs(config, 2, str(tmp_path))
        journal = CityJournal(config.digest(), root=str(tmp_path))
        imposter = CityJournal(city_config(seed=8).digest(),
                               root=str(tmp_path))
        os.rename(journal.path, imposter.path)
        assert imposter.load() == []


# -- shard worker processes ----------------------------------------------------


@pytest.fixture
def worker_pids(monkeypatch):
    """The pid of every shard worker started while the test runs."""
    pids = []
    start = coordinator_module.ShardWorkers._start

    def recording_start(self, worker):
        process, pipe = start(self, worker)
        pids.append(process.pid)
        return process, pipe

    monkeypatch.setattr(coordinator_module.ShardWorkers, "_start",
                        recording_start)
    return pids


def shard_worker_processes():
    return [child for child in multiprocessing.active_children()
            if child.name.startswith("city-shard-worker-")]


class TestShardWorkers:
    def test_workers_are_reaped_after_clean_and_raising_runs(
            self, worker_pids, tmp_path):
        run_city(city_config(), jobs=2, checkpoint=False)
        assert len(worker_pids) == 2
        assert_reaped(worker_pids)
        del worker_pids[:]
        crash_after_epochs(city_config(), 2, str(tmp_path), jobs=2)
        assert_reaped(worker_pids)

    def test_killed_worker_is_respawned(self, serial_result, worker_pids):
        """SIGKILL a worker after the epoch-1 barrier: its replacement
        replays epochs 0-1, then the run ends with the serial digest."""
        coordinator = CityCoordinator(city_config(), jobs=2,
                                      checkpoint=False)
        killed = []

        def kill_one(epoch):
            if epoch == 1:
                victim = shard_worker_processes()[0]
                os.kill(victim.pid, signal.SIGKILL)
                killed.append(victim.pid)

        at_barrier(coordinator, kill_one)
        result = coordinator.run()
        assert result.digest == serial_result.digest
        assert result.epoch_digests == serial_result.epoch_digests
        assert len(worker_pids) == 3 and killed[0] in worker_pids
        assert_reaped(worker_pids)

    def test_divergent_replay_raises(self, worker_pids):
        config = city_config()
        coordinator = CityCoordinator(config, jobs=2, checkpoint=False)

        def kill_and_rewrite_history(epoch):
            if epoch == 1:
                victim, = [child for child in shard_worker_processes()
                           if child.name.endswith("-0")]
                os.kill(victim.pid, signal.SIGKILL)
                # Shard 0 lives on worker 0; its replay now sees an
                # epoch-0 message the original run never had.
                coordinator._history[0][0].append(message_envelope(
                    dest_ein=config.data_ein(0, 0), dest_cell=0,
                    message_id=1, size_bytes=100, created_at=0.0,
                    src_cell=1, sent_at=0.0))

        at_barrier(coordinator, kill_and_rewrite_history)
        with pytest.raises(CityIntegrityError,
                           match="shard 0 replayed epoch 0"):
            coordinator.run()
        assert_reaped(worker_pids)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched method reaches workers by "
                               "fork only")
    def test_second_death_in_an_epoch_keeps_the_journal(
            self, serial_result, worker_pids, tmp_path, monkeypatch):
        config = city_config()
        run_epoch = ShardSim.run_epoch
        coordinator_pid = os.getpid()

        def dying_run_epoch(shard, epoch):
            if epoch == 1 and os.getpid() != coordinator_pid:
                os._exit(1)
            return run_epoch(shard, epoch)

        monkeypatch.setattr(ShardSim, "run_epoch", dying_run_epoch)
        with pytest.raises(RuntimeError, match="died twice in epoch 1"):
            run_city(config, jobs=2, checkpoint=True,
                     journal_root=str(tmp_path))
        assert_reaped(worker_pids)
        monkeypatch.setattr(ShardSim, "run_epoch", run_epoch)
        resumed = run_city(config, jobs=2, checkpoint=True,
                           journal_root=str(tmp_path), resume=True)
        assert resumed.verified_epochs == 1
        assert resumed.digest == serial_result.digest


def running(pid):
    """Whether ``pid`` runs (a zombie does not), from /proc."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:].split()[0] != b"Z"


def running_descendants(pid):
    """Running processes below ``pid``: the shard workers, and under
    the forkserver start method also the server they fork from."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    stat = handle.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat[stat.rindex(b")") + 2:]
                                      .split()[1])
    found = []
    frontier = [pid]
    while frontier:
        frontier = [child for child, parent in parents.items()
                    if parent in frontier]
        found += frontier
    return [child for child in found if running(child)]


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="finds the shard workers in /proc")
class TestCitySigkillResume:
    def test_sigkill_then_resume_matches_clean_digest(self, tmp_path):
        """kill -9 a ``--jobs 2`` coordinator mid-epoch, then
        ``repro city --resume``: no worker outlives the coordinator,
        and the resumed digest equals the clean serial one."""
        env = dict(os.environ,
                   PYTHONPATH="src", REPRO_CACHE="0",
                   REPRO_JOURNAL_DIR=str(tmp_path / "journal"))
        cmd = [sys.executable, "-m", "repro", "city",
               "--rows", "4", "--cols", "4", "--shards", "2",
               "--epochs", "30", "--epoch-cycles", "20",
               "--warmup", "5", "--data-users", "2",
               "--gps-users", "1", "--movers", "1",
               "--hops-per-epoch", "1.0", "--seed", "7",
               "--digest-only"]
        clean = subprocess.run(cmd, env=env, capture_output=True,
                               text=True, timeout=300)
        assert clean.returncode == 0, clean.stderr
        digest = clean.stdout.strip().splitlines()[-1]
        assert len(digest) == 64

        cmd += ["--jobs", "2"]
        victim = subprocess.Popen(cmd, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        journal_dir = tmp_path / "journal"
        deadline = time.time() + 120
        committed = 0
        while time.time() < deadline and victim.poll() is None:
            for journal in journal_dir.glob("city-*.jsonl"):
                committed = max(
                    committed,
                    len(journal.read_text().splitlines()) - 1)
            if committed >= 2:
                break
            time.sleep(0.05)
        assert victim.poll() is None, \
            "run finished before it could be killed; grow the config"
        assert committed >= 2, "no epoch committed before timeout"
        workers = running_descendants(victim.pid)
        assert len(workers) >= 2, workers
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        assert any(journal_dir.glob("city-*.jsonl")), \
            "SIGKILL destroyed the journal"
        deadline = time.time() + 30
        while any(map(running, workers)) and time.time() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers)), \
            "a shard worker outlived its killed coordinator"

        resumed = subprocess.run(cmd + ["--resume"], env=env,
                                 capture_output=True, text=True,
                                 timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout.strip().splitlines()[-1] == digest
        assert not any(journal_dir.glob("city-*.jsonl")), \
            "journal kept after clean resume"


# -- shard internals ---------------------------------------------------------


class TestShardSim:
    def test_handoff_state_crosses_the_barrier(self):
        """A captured departure re-materializes in the other shard with
        its queue, hop count and message counter intact."""
        config = city_config()
        shards = [ShardSim(config, 0), ShardSim(config, 1)]
        outbound = []
        for epoch in range(config.epochs):
            for shard in shards:
                shard.apply_inbound(epoch, outbound)
            outbound = []
            for shard in shards:
                report = shard.run_epoch(epoch)
                outbound.extend(report["outbound"])
            outbound = canonical_order(outbound)
            departures = [env for env in outbound
                          if env["type"] == "handoff"]
            if departures:
                break
        assert departures, "no shard boundary crossed; re-seed"
        env = departures[0]
        assert env["state"]["ein"] == env["ein"]
        assert env["hop"] >= 1
        owner = config.shard_of_cell(env["to_cell"])
        target = shards[owner]
        before = dict(target._local)
        target.apply_inbound(epoch + 1, [env])
        assert env["ein"] in target._local
        assert env["ein"] not in before
        materialized = target._local[env["ein"]]
        assert materialized.ein == env["ein"]
        assert target._hop[env["ein"]] == env["hop"]

    def test_census_is_consistent_with_reports(self, serial_result):
        config = city_config()
        census = sorted(ein for report in serial_result.reports
                        for ein in report["census"])
        assert len(census) == len(set(census)), \
            "a subscriber is hosted by two shards at once"
        # Everyone not mid-flight at the final barrier is hosted.
        assert set(census) <= set(config.all_eins())

    def test_no_radio_violations_in_the_acceptance_city(
            self, serial_result):
        assert serial_result.counters["radio_violations"] == 0


# -- observability -----------------------------------------------------------


@pytest.fixture
def fresh_registry():
    registry = MetricsRegistry(enabled=False)
    previous = set_default_registry(registry)
    yield registry
    set_default_registry(previous)


class TestCityMetrics:
    def test_city_families_are_published(self, fresh_registry):
        fresh_registry.enable()
        run_city(city_config(), jobs=1, checkpoint=False)
        families = {family.name for family
                    in fresh_registry.families()}
        assert "osu_city_handoffs_total" in families
        assert "osu_city_messages_total" in families
        assert "osu_city_backbone_bytes_total" in families
        assert "osu_city_epoch_barrier_lag_seconds" in families
        handoffs = fresh_registry.get("osu_city_handoffs_total")
        children = list(handoffs.children())
        assert sum(child.value for _, child in children) > 0
        assert all(len(labels) == 3  # (shard, cell, kind)
                   for labels, _ in children)

    def test_workers_report_the_barrier_lag(self, fresh_registry):
        fresh_registry.enable()
        run_city(city_config(), jobs=2, checkpoint=False)
        lag = fresh_registry.get("osu_city_epoch_barrier_lag_seconds")
        (_, gauge), = lag.children()
        assert gauge.value > 0.0

    def test_disabled_registry_costs_nothing(self, fresh_registry,
                                             serial_result):
        result = run_city(city_config(), jobs=1, checkpoint=False)
        assert fresh_registry.families() == []
        assert result.digest == serial_result.digest

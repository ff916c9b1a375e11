"""Fault tolerance of the run engine.

Covers the resilience layer end to end with the deterministic executor
fault injector (:mod:`tests._resilience_tasks`): worker-crash recovery
must stay bit-identical to a clean serial run, hung points must be
killed and retried under a timeout, a crash or a timeout must cost
only the worker that ran the point, exhausted points must be salvaged
as structured failures, and a SIGKILLed sweep must leave no worker
running and resume from the result cache recomputing only the
unfinished points.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.engine import (
    ParallelExecutor,
    PointFailureError,
    ResultCache,
    RunPolicy,
    RunSpec,
    execute,
    point_key,
    resolve_policy,
)
from tests._resilience_tasks import (
    ExecFaultPlan,
    FaultyTask,
    exit_once_then_square,
    grid_spec,
    kill_spec,
    raise_keyboard_interrupt,
    sleep_then_square,
    square,
    square_values,
)
from tests.test_shard import running, running_descendants

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- crash / hang / error recovery ----------------------------------------


def test_parallel_crash_recovery_is_bit_identical(tmp_path):
    """Workers dying mid-grid must not change the sweep's results."""
    plan = ExecFaultPlan(marker_dir=str(tmp_path), seed=0, crash_rate=0.3)
    spec = grid_spec(12, fn=FaultyTask(fn=square, plan=plan),
                     name="crash-recovery")
    cursed = plan.cursed([point.config for point in spec.points])
    assert len(cursed) >= 2  # >= 1 crash per 10 points (acceptance)

    result = execute(spec, jobs=3, cache=False)

    assert result.values == square_values(12)  # == clean serial run
    assert result.failures == []
    assert result.stats.respawns >= 1
    assert result.stats.points == 12


def test_parallel_hang_timeout_recovery(tmp_path):
    """Hung workers are killed at the deadline and the point retried."""
    plan = ExecFaultPlan(marker_dir=str(tmp_path), seed=0, hang_rate=0.3,
                         hang_s=30.0)
    spec = grid_spec(6, fn=FaultyTask(fn=square, plan=plan),
                     name="hang-recovery")
    cursed = plan.cursed([point.config for point in spec.points])
    assert len(cursed) >= 1

    started = time.monotonic()
    result = execute(spec, jobs=2, cache=False,
                     policy=RunPolicy(timeout_s=0.75, retries=1,
                                      backoff_s=0.01))
    elapsed = time.monotonic() - started

    assert result.values == square_values(6)
    assert result.failures == []
    assert result.stats.timeouts >= len(cursed)
    assert result.stats.respawns >= 1
    # The hang is 30s; finishing quickly proves preemption worked.
    assert elapsed < 20.0


def test_serial_retries_until_success(tmp_path):
    plan = ExecFaultPlan(marker_dir=str(tmp_path), seed=0, error_rate=1.0,
                         faults_per_point=2)
    spec = grid_spec(4, fn=FaultyTask(fn=square, plan=plan),
                     name="serial-retry")

    result = execute(spec, jobs=1, cache=False,
                     policy=RunPolicy(retries=2, backoff_s=0.0))

    assert result.values == square_values(4)
    assert result.failures == []
    assert result.stats.retries == 8  # 2 burned attempts per point


def test_exhausted_retries_are_salvaged_not_raised(tmp_path):
    """Failed points become PointFailure records; the reducer only
    ever sees the survivors."""
    plan = ExecFaultPlan(marker_dir=str(tmp_path), seed=0, error_rate=0.3,
                         faults_per_point=99)
    base = grid_spec(8, fn=FaultyTask(fn=square, plan=plan))
    cursed = plan.cursed([point.config for point in base.points])
    assert 0 < len(cursed) < 8
    spec = RunSpec(name="salvage", points=base.points,
                   reducer=lambda values, points: list(values))

    result = execute(spec, jobs=1, cache=False,
                     policy=RunPolicy(retries=1, backoff_s=0.0))

    assert len(result.failures) == len(cursed)
    for failure in result.failures:
        assert failure.kind == "exception"
        assert failure.error == "InjectedFault"
        assert failure.attempts == 2
        assert failure.key is not None
        assert "x" in failure.label
        assert result.values[failure.index] is None
    # The reducer received only the surviving points.
    assert len(result.reduced) == 8 - len(cursed)
    assert all(value is not None for value in result.reduced)
    # The structured report round-trips through JSON.
    report = result.failure_report()
    assert report["points"] == 8
    assert len(json.loads(json.dumps(report))["failed"]) == len(cursed)


def test_fail_fast_raises_point_failure_error(tmp_path):
    plan = ExecFaultPlan(marker_dir=str(tmp_path), seed=0, error_rate=1.0,
                         faults_per_point=99)
    spec = grid_spec(3, fn=FaultyTask(fn=square, plan=plan),
                     name="fail-fast")
    with pytest.raises(PointFailureError) as caught:
        execute(spec, jobs=1, cache=False,
                policy=RunPolicy(fail_fast=True, backoff_s=0.0))
    assert caught.value.failure.kind == "exception"


def test_keyboard_interrupt_cancels_queued_points():
    """Ctrl-C in a worker propagates after the pool is shut down."""
    executor = ParallelExecutor(2)
    tasks = [(raise_keyboard_interrupt, {"x": 0}), (square, {"x": 1}),
             (square, {"x": 2}), (square, {"x": 3})]
    with pytest.raises(KeyboardInterrupt):
        executor.map(tasks)


def test_crash_respawns_only_the_dead_worker(tmp_path):
    """A worker that dies costs only its own point a re-run: the point
    running beside it finishes on its first attempt."""
    tasks = [(exit_once_then_square,
              {"x": 0, "exit_marker": str(tmp_path / "died.marker")}),
             (sleep_then_square, {"x": 1, "sleep_s": 1.5})]

    report = ParallelExecutor(2).map(tasks)

    assert [outcome.value for outcome in report.outcomes] == \
        square_values(2)
    assert report.outcomes[1].attempts == 1
    assert report.respawns == 1


def test_timeout_kills_only_the_hung_worker(tmp_path):
    """A hung point is killed at its deadline; the point that spans
    the deadline on the other worker is not re-run."""
    hung = FaultyTask(fn=square, plan=ExecFaultPlan(
        marker_dir=str(tmp_path), hang_rate=1.0))
    tasks = [(hung, {"x": 0}),
             (sleep_then_square, {"x": 1, "sleep_s": 0.5}),
             (sleep_then_square, {"x": 2, "sleep_s": 0.8})]

    report = ParallelExecutor(2).map(
        tasks, policy=RunPolicy(timeout_s=1.0, retries=1, backoff_s=0.0))

    assert [outcome.value for outcome in report.outcomes] == \
        square_values(3)
    assert report.timeouts == 1
    assert [outcome.attempts for outcome in report.outcomes] == [2, 1, 1]


def test_unpicklable_task_is_salvaged_not_raised():
    """A task that cannot reach a worker fails as that point's
    exception; the other points still run."""
    tasks = [(square, {"x": 0}), (lambda config: config, {"x": 1})]

    report = ParallelExecutor(2).map(tasks)

    assert report.outcomes[0].value == square({"x": 0})
    failure = report.outcomes[1].failure
    assert failure is not None and failure.kind == "exception"
    assert report.respawns == 0


# -- kill -> rerun on the same cache ------------------------------------


def test_sigkilled_sweep_resumes_from_cache(tmp_path):
    """A sweep killed mid-point, rerun on the same result cache,
    recomputes only the rest and returns what a clean run returns."""
    marker = str(tmp_path / "died.marker")
    cache_dir = str(tmp_path / "cache")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT])

    # Victim run: point 5 of 8 os._exit()s the interpreter -- to the
    # cache this is indistinguishable from a SIGKILL mid-sweep.
    code = (
        "from tests._resilience_tasks import kill_spec\n"
        "from repro.engine import ResultCache, execute\n"
        f"execute(kill_spec({marker!r}), jobs=1, "
        f"cache=ResultCache({cache_dir!r}))\n")
    victim = subprocess.run([sys.executable, "-c", code],
                            cwd=REPO_ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert victim.returncode == 9, victim.stderr
    assert os.path.exists(marker)

    # Rerun: the five finished points are cache hits, the in-flight
    # point and the two never-started ones are computed.
    result = execute(kill_spec(marker), jobs=1,
                     cache=ResultCache(cache_dir))
    assert result.stats.cache_hits == 5
    assert result.stats.executed == 3
    clean = execute(kill_spec(marker), jobs=1, cache=False)
    assert json.dumps(result.values) == json.dumps(clean.values)


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="finds the pool workers in /proc")
def test_sigkilled_sweep_leaves_no_orphan_workers(tmp_path):
    """kill -9 a ``--jobs 2`` sweep: its workers see EOF and exit."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep",
         "--loads", "0.3,0.6,0.9", "--seeds", "1,2,3,4",
         "--cycles", "2000", "--warmup", "60", "--jobs", "2",
         "--no-cache", "--json"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        workers = []
        deadline = time.time() + 60
        while len(workers) < 2 and time.time() < deadline \
                and victim.poll() is None:
            time.sleep(0.05)
            workers = running_descendants(victim.pid)
        assert len(workers) >= 2, workers
    finally:
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
    deadline = time.time() + 30
    while any(map(running, workers)) and time.time() < deadline:
        time.sleep(0.05)
    assert not any(map(running, workers)), \
        "a sweep worker outlived its killed parent"


# -- cache hygiene satellites ----------------------------------------------


def test_cache_scavenges_stale_tmp_files(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    stale = root / "orphan.tmp"
    stale.write_text("half-written")
    hour_ago = time.time() - 3600
    os.utime(stale, (hour_ago, hour_ago))
    fresh = root / "live.tmp"
    fresh.write_text("still being written")

    ResultCache(str(root))

    assert not stale.exists()  # orphan swept at startup
    assert fresh.exists()  # young file may belong to a live writer


def test_corrupt_cache_entry_is_quarantined(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.put("key1", {"a": 1})
    (tmp_path / "key1.json").write_text("{not json", encoding="utf-8")

    hit, _ = cache.get("key1")

    assert not hit
    assert cache.quarantined == 1
    assert (tmp_path / "key1.corrupt").exists()
    assert not (tmp_path / "key1.json").exists()
    # The key is usable again after quarantine.
    assert cache.put("key1", {"a": 2})
    assert cache.get("key1") == (True, {"a": 2})


def test_clear_sweeps_entries_tmp_and_corrupt(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.put("k", 1)
    (tmp_path / "x.tmp").write_text("", encoding="utf-8")
    (tmp_path / "y.corrupt").write_text("", encoding="utf-8")
    assert cache.clear() == 3
    assert list(tmp_path.iterdir()) == []


def test_execute_counts_quarantined_entries(tmp_path):
    spec = grid_spec(2, name="quarantine")
    cache = ResultCache(str(tmp_path))
    key = point_key(spec.points[0].fn, spec.points[0].config)
    (tmp_path / f"{key}.json").write_text("{broken", encoding="utf-8")

    result = execute(spec, jobs=1, cache=cache)

    assert result.stats.quarantined == 1
    assert result.values == square_values(2)  # recomputed, not lost


def test_cache_rejects_unserializable_values(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert not cache.put("k", object())
    assert cache.get("k") == (False, None)


def test_cache_keeps_value_key_order(tmp_path):
    # Reducers emit the first value's key order, so a value rerun from
    # the cache must come back in the order it was computed in.
    assert ResultCache(str(tmp_path)).put(
        "k", {"zeta": 1, "alpha": {"y": 2, "x": 3}})
    hit, value = ResultCache(str(tmp_path)).get("k")
    assert hit
    assert list(value) == ["zeta", "alpha"]
    assert list(value["alpha"]) == ["y", "x"]


# -- policy resolution and CLI wiring --------------------------------------


def test_backoff_is_exponential_and_capped():
    policy = RunPolicy(backoff_s=0.1, backoff_cap_s=0.35)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(3) == pytest.approx(0.35)  # capped
    assert RunPolicy(backoff_s=0.0).backoff(5) == 0.0


def test_experiments_cli_installs_default_policy(monkeypatch, capsys):
    from repro.experiments import __main__ as experiments_cli
    from repro.experiments.runner import ExperimentResult

    captured = {}

    def stub(quick=False, jobs=None, cache=None):
        captured["policy"] = resolve_policy()
        return ExperimentResult(experiment_id="stub", title="stub",
                                headers=["a"], rows=[[1]])

    monkeypatch.setitem(experiments_cli.EXPERIMENTS, "stub", stub)
    code = experiments_cli.main(
        ["stub", "--retries", "2", "--timeout", "5", "--fail-fast"])
    assert code == 0
    policy = captured["policy"]
    assert policy.retries == 2
    assert policy.timeout_s == 5.0
    assert policy.fail_fast
    # The default is uninstalled once the CLI returns.
    assert resolve_policy().retries == 0
    capsys.readouterr()


def test_sweep_cli_accepts_resilience_flags(tmp_path, monkeypatch,
                                            capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code = main(["sweep", "--loads", "0.3", "--seeds", "1",
                 "--cycles", "40", "--warmup", "5",
                 "--retries", "1", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    points = json.loads(out)
    assert len(points) == 1
    assert points[0]["load"] == 0.3

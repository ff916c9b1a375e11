"""Fault tolerance of the run engine.

Covers the resilience layer end to end with the deterministic executor
fault injector (:mod:`repro.engine.faultsim`): worker-crash recovery
must stay bit-identical to a clean serial run, hung points must be
killed and retried under a timeout, exhausted points must be salvaged
as structured failures, and a SIGKILLed sweep must resume from its
checkpoint journal recomputing only the unfinished points.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.engine import (
    ExecFaultPlan,
    FaultyTask,
    ParallelExecutor,
    PointFailureError,
    ResultCache,
    RunPolicy,
    RunSpec,
    SweepJournal,
    execute,
    point_key,
    resolve_policy,
)
from tests._resilience_tasks import (
    grid_spec,
    kill_spec,
    raise_keyboard_interrupt,
    square,
    square_values,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- crash / hang / error recovery ----------------------------------------


def test_parallel_crash_recovery_is_bit_identical():
    """Workers dying mid-grid must not change the sweep's results."""
    plan = ExecFaultPlan(seed=0, crash_rate=0.3)
    spec = grid_spec(12, fn=FaultyTask(fn=square, plan=plan),
                     name="crash-recovery")
    cursed = plan.cursed([point.config for point in spec.points])
    assert len(cursed) >= 2  # >= 1 crash per 10 points (acceptance)

    result = execute(spec, jobs=3, cache=False)

    assert result.values == square_values(12)  # == clean serial run
    assert result.failures == []
    assert result.stats.respawns >= 1
    assert result.stats.points == 12


def test_parallel_hang_timeout_recovery():
    """Hung workers are killed at the deadline and the point retried."""
    plan = ExecFaultPlan(seed=0, hang_rate=0.3, hang_s=30.0)
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


def test_serial_retries_until_success():
    plan = ExecFaultPlan(seed=0, error_rate=1.0, faults_per_point=2)
    spec = grid_spec(4, fn=FaultyTask(fn=square, plan=plan),
                     name="serial-retry")

    result = execute(spec, jobs=1, cache=False,
                     policy=RunPolicy(retries=2, backoff_s=0.0))

    assert result.values == square_values(4)
    assert result.failures == []
    assert result.stats.retries == 8  # 2 burned attempts per point


def test_exhausted_retries_are_salvaged_not_raised():
    """Failed points become PointFailure records; the reducer only
    ever sees the survivors."""
    plan = ExecFaultPlan(seed=0, error_rate=0.3, faults_per_point=99)
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


def test_fail_fast_raises_point_failure_error():
    plan = ExecFaultPlan(seed=0, error_rate=1.0, faults_per_point=99)
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


# -- kill -> --resume ------------------------------------------------------


def test_sigkilled_sweep_resumes_from_journal(tmp_path, monkeypatch):
    """A sweep killed mid-point resumes recomputing only the rest."""
    marker = str(tmp_path / "died.marker")
    journal_dir = str(tmp_path / "journal")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT])
    env["REPRO_JOURNAL_DIR"] = journal_dir
    env["REPRO_CACHE"] = "0"

    # Victim run: point 5 of 8 os._exit()s the interpreter -- to the
    # journal this is indistinguishable from a SIGKILL mid-sweep.
    code = (
        "from tests._resilience_tasks import kill_spec\n"
        "from repro.engine import execute\n"
        f"execute(kill_spec({marker!r}), jobs=1, cache=False, "
        "resume=True)\n")
    victim = subprocess.run([sys.executable, "-c", code],
                            cwd=REPO_ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert victim.returncode == 9, victim.stderr
    assert os.path.exists(marker)
    # The kill leaves the journal plus its (now-stale) pidfile lock;
    # resume steals the stale lock and proceeds.
    journals = sorted(os.listdir(journal_dir))
    assert len(journals) == 2
    assert journals[0].endswith(".jsonl")
    assert journals[1].endswith(".jsonl.lock")

    # Resume: the five journaled points are replayed, the in-flight
    # point and the two never-started ones are recomputed.
    monkeypatch.setenv("REPRO_JOURNAL_DIR", journal_dir)
    result = execute(kill_spec(marker), jobs=1, cache=False,
                     resume=True)
    assert result.values == square_values(8)
    assert result.stats.resumed == 5
    assert result.stats.executed == 3
    assert "5 resumed" in result.stats.format()
    # A cleanly finished sweep discards its journal.
    assert os.listdir(journal_dir) == []


def test_journal_skips_torn_and_foreign_lines(tmp_path):
    keys = ["key-a", "key-b"]
    journal = SweepJournal("torn", keys, root=str(tmp_path))
    assert journal.append("key-a", {"v": 1})
    journal.close()
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"key": "foreign", "value": 2}) + "\n")
        handle.write('{"key": "key-b", "val')  # torn mid-write kill

    loaded = SweepJournal("torn", keys, root=str(tmp_path)).load()
    assert loaded == {"key-a": {"v": 1}}

    # A different grid hashes to a different journal file.
    other = SweepJournal("torn", keys + ["key-c"], root=str(tmp_path))
    assert other.path != journal.path

    journal.discard()
    assert not os.path.exists(journal.path)


def test_journal_rejects_unserializable_values(tmp_path):
    journal = SweepJournal("binary", ["k"], root=str(tmp_path))
    assert not journal.append("k", object())
    assert journal.load() == {}
    journal.close()


def test_journal_keeps_value_key_order(tmp_path):
    # Reducers emit the first value's key order, so a resumed value
    # must come back in the order it was computed in.
    journal = SweepJournal("order", ["k"], root=str(tmp_path))
    assert journal.append("k", {"zeta": 1, "alpha": {"y": 2, "x": 3}})
    journal.close()
    value = SweepJournal("order", ["k"], root=str(tmp_path)).load()["k"]
    assert list(value) == ["zeta", "alpha"]
    assert list(value["alpha"]) == ["y", "x"]


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


# -- policy resolution and CLI wiring --------------------------------------


def test_policy_env_mirrors(monkeypatch):
    monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_RETRIES", "3")
    monkeypatch.setenv("REPRO_FAIL_FAST", "1")
    policy = resolve_policy()
    assert policy.timeout_s == 2.5
    assert policy.retries == 3
    assert policy.fail_fast
    # Explicit overrides beat the environment, including falsy ones.
    assert resolve_policy(retries=0).retries == 0


def test_backoff_is_exponential_and_capped():
    policy = RunPolicy(backoff_s=0.1, backoff_cap_s=0.35)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(3) == pytest.approx(0.35)  # capped
    assert RunPolicy(backoff_s=0.0).backoff(5) == 0.0


def test_experiments_cli_installs_default_policy(monkeypatch, capsys):
    from repro.experiments import __main__ as experiments_cli
    from repro.experiments.runner import ExperimentResult

    for name in ("REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_FAIL_FAST",
                 "REPRO_RESUME"):
        monkeypatch.delenv(name, raising=False)
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
    monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journal"))
    code = main(["sweep", "--loads", "0.3", "--seeds", "1",
                 "--cycles", "40", "--warmup", "5",
                 "--resume", "--retries", "1", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    points = json.loads(out)
    assert len(points) == 1
    assert points[0]["load"] == 0.3

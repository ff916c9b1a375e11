"""Service mode (`repro serve`): journals, resume, supervision, HTTP.

The acceptance scenario at the bottom is the PR's headline: a soak is
SIGKILLed mid-run, ``repro serve --resume`` replays the journal, the
control plane reports ready, the invariant monitor stays clean for the
stabilization window, and every exported counter is monotonic across
the restart boundary.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.core.cell import build_cell
from repro.core.config import CellConfig
from repro.engine.checkpoint import (
    AppendLog,
    JournalLock,
    JournalLockedError,
)
from repro.faults.injector import FaultInjector
from repro.obs.registry import MetricsRegistry
from repro.phy import timing
from repro.phy.channel import Transmission
from repro.serve import (
    AdmissionController,
    CellService,
    DegradedError,
    ResumeIntegrityError,
    ServeConfig,
    ServiceError,
    ServiceJournal,
    Supervisor,
    assess,
)
from repro.serve.control import ControlServer
from repro.serve.service import RUNNING, STOPPED

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_cell(**overrides) -> CellConfig:
    defaults = dict(num_data_users=4, num_gps_users=2, load_index=0.5,
                    liveness_lease_cycles=6, seed=11,
                    eviction_backoff_jitter_cycles=2)
    defaults.update(overrides)
    return CellConfig(**defaults)


def serve_config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(name="t", journal_root=str(tmp_path),
                    cycle_period_s=0.0, stall_timeout_s=30.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


# -- journal locking (satellite: double-resume protection) -----------------


class TestJournalLock:
    def test_acquire_release_roundtrip(self, tmp_path):
        lock = JournalLock(str(tmp_path / "a.lock"))
        lock.acquire()
        assert lock.held
        assert os.path.exists(lock.path)
        lock.release()
        assert not lock.held
        assert not os.path.exists(lock.path)

    def test_live_foreign_pid_blocks(self, tmp_path):
        path = str(tmp_path / "a.lock")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("1\n")  # pid 1 is alive in any container
        with pytest.raises(JournalLockedError):
            JournalLock(path).acquire()

    def test_stale_pid_is_stolen(self, tmp_path):
        # A subprocess that already exited leaves a genuinely dead pid.
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        path = str(tmp_path / "a.lock")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{probe.pid}\n")
        lock = JournalLock(path)
        lock.acquire()  # steals the stale lock instead of raising
        assert lock.held
        lock.release()

    def test_same_pid_reacquires(self, tmp_path):
        """Watchdog takeover: the replacement service shares our pid."""
        path = str(tmp_path / "a.lock")
        first = JournalLock(path)
        first.acquire()
        second = JournalLock(path)
        second.acquire()
        assert second.held
        second.release()

    def test_append_log_lock_conflict(self, tmp_path):
        path = str(tmp_path / "locked.jsonl")
        log = AppendLog(path)
        log.acquire()
        log.append_record({"v": 1})
        with open(log.lock.path, "w", encoding="utf-8") as handle:
            handle.write("1\n")  # simulate another live owner
        other = AppendLog(path)
        with pytest.raises(JournalLockedError):
            other.acquire()
        os.unlink(log.lock.path)

    def test_append_log_truncated_mid_record_tail(self, tmp_path):
        path = str(tmp_path / "torn2.jsonl")
        log = AppendLog(path)
        log.append_record({"v": 1})
        log.append_record({"v": 2})
        log.close()
        # SIGKILL mid-write: chop the last record in half.
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
            handle.write(lines[-1][:len(lines[-1]) // 2])
        assert list(AppendLog(path).records()) == [{"v": 1}]
        # The resumed run's next record must not be glued to the torn
        # fragment (and lost with it).
        resumed = AppendLog(path)
        resumed.append_record({"v": 3})
        resumed.close()
        assert list(AppendLog(path).records()) == [{"v": 1}, {"v": 3}]


# -- the service journal ----------------------------------------------------


class TestServiceJournal:
    def test_roundtrip(self, tmp_path):
        journal = ServiceJournal("cell", root=str(tmp_path))
        journal.acquire()
        journal.write_header("sha", {"cfg": 1}, {"serve": 2})
        journal.append_control(0, {"op": "load", "factor": 2.0})
        journal.append_snapshot(1, {"a": 1}, {"joins_data": 0})
        journal.append_control(3, {"op": "join", "service": "data"})
        journal.append_event("resumed", 3)
        journal.close()

        log = ServiceJournal("cell", root=str(tmp_path)).load()
        assert log.header["config_sha256"] == "sha"
        assert [op["cycle"] for op in log.ops] == [0, 3]
        assert log.snapshot_cycle == 1
        assert log.resume_cycle == 3  # ops pin state past the snapshot
        assert not log.clean_shutdown

    def test_clean_shutdown_flag(self, tmp_path):
        journal = ServiceJournal("cell", root=str(tmp_path))
        journal.write_header("sha", {}, {})
        journal.append_snapshot(5, {}, {})
        journal.append_event("shutdown", 5, clean=True)
        journal.close()
        assert ServiceJournal("cell",
                              root=str(tmp_path)).load().clean_shutdown

    def test_torn_tail_tolerated(self, tmp_path):
        journal = ServiceJournal("cell", root=str(tmp_path))
        journal.write_header("sha", {}, {})
        journal.append_snapshot(2, {"a": 1}, {})
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "snapshot", "cycle": 3, "co')
        log = ServiceJournal("cell", root=str(tmp_path)).load()
        assert log.snapshot_cycle == 2  # the torn record is ignored


# -- admission control -------------------------------------------------------


class TestAdmission:
    def test_hysteresis(self):
        ctl = AdmissionController(lag_budget_s=1.0, lag_recover_s=0.25)
        assert ctl.update(0.5) is None
        assert ctl.update(1.5) is True  # enter
        assert ctl.update(0.5) is None  # inside the hysteresis band
        assert ctl.update(0.1) is False  # exit
        assert ctl.update(0.1) is None
        assert ctl.transitions == 2
        assert ctl.worst_lag_s == 1.5

    def test_negative_lag_clamped(self):
        ctl = AdmissionController(lag_budget_s=1.0, lag_recover_s=0.25)
        assert ctl.update(-5.0) is None
        assert ctl.worst_lag_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(lag_budget_s=0.0, lag_recover_s=0.0)
        with pytest.raises(ValueError):
            AdmissionController(lag_budget_s=1.0, lag_recover_s=2.0)


# -- self-stabilization verdicts --------------------------------------------


class TestStabilize:
    def _history(self, rows):
        return [{"cycle": cycle, "invariant_violations": violations,
                 "gps_min_margin_s": margin}
                for cycle, violations, margin in rows]

    def test_converges_within_window(self):
        history = self._history([
            (10, 2, -1.0), (11, 1, -0.5), (12, 0, 0.5), (13, 0, 1.0),
            (14, 0, 1.2), (15, 0, 1.2), (16, 0, 1.2), (17, 0, 1.2),
            (18, 0, 1.2), (19, 0, 1.2), (20, 0, 1.2),
        ])
        report = assess(history, burst_end_cycle=10, window=10)
        assert report["converged_cycle"] == 12
        assert report["cycles_to_converge"] == 2
        assert report["gps_reacquired_cycle"] == 12
        assert report["ok"] is True
        assert report["final"] is True

    def test_relapse_resets_convergence(self):
        history = self._history([
            (10, 0, 1.0), (11, 0, 1.0), (12, 3, 1.0), (13, 0, 1.0),
        ])
        report = assess(history, burst_end_cycle=10, window=10)
        assert report["converged_cycle"] == 13
        assert report["final"] is False  # window not yet observed

    def test_never_converges(self):
        history = self._history([(c, 1, 1.0) for c in range(10, 25)])
        report = assess(history, burst_end_cycle=10, window=10)
        assert report["converged_cycle"] is None
        assert report["ok"] is False
        assert report["final"] is True

    def test_gps_catchup_gap_tolerated(self):
        # The single catch-up report spanning the outage misses its
        # deadline; re-acquisition counts from the next clean cycle.
        history = self._history([
            (10, 0, None), (11, 0, -3.0), (12, 0, 0.2), (13, 0, 1.0),
        ])
        report = assess(history, burst_end_cycle=10, window=10)
        assert report["gps_reacquired_cycle"] == 12

    def test_empty_history(self):
        report = assess([], burst_end_cycle=5, window=10)
        assert report["observed_until"] is None
        assert report["ok"] is False


# -- one supervised cell ------------------------------------------------------


class TestCellService:
    def test_fresh_start_journals_header_and_snapshots(self, tmp_path):
        svc = CellService("cell0", small_cell(),
                          serve_config(tmp_path))
        svc.start(resume=False)
        for _ in range(3):
            svc.step_cycle()
        svc.shutdown(clean=True)
        log = svc.journal.load()
        assert log.header["schema"].startswith("repro/serve-journal")
        assert log.header["config_sha256"] == svc.config_sha256
        assert log.snapshot_cycle == 3
        assert log.clean_shutdown
        assert svc.state == STOPPED

    def test_control_ops_apply_at_boundaries(self, tmp_path):
        svc = CellService("cell0", small_cell(),
                          serve_config(tmp_path))
        svc.start(resume=False)
        base = svc.run.sources[0].mean_interarrival
        svc.enqueue_load(2.0)
        svc.enqueue_join("data")
        svc.enqueue_join("gps")
        for _ in range(4):
            svc.step_cycle()
        assert svc.run.sources[0].mean_interarrival == base / 2.0
        assert len(svc.run.data_users) == 5
        assert len(svc.run.gps_units) == 3
        assert svc.run.data_users[-1].name == "data-4"
        assert svc.counters["joins_data"] == 1
        assert svc.counters["joins_gps"] == 1
        # Ops landed in the journal with the cycle they preceded.
        ops = svc.journal.load().ops
        assert {op["op"]["op"] for op in ops} == {"load", "join"}
        assert all(op["cycle"] == 0 for op in ops)
        svc.shutdown()

    def test_leave_powers_subscriber_off(self, tmp_path):
        svc = CellService("cell0", small_cell(),
                          serve_config(tmp_path))
        svc.start(resume=False)
        for _ in range(3):
            svc.step_cycle()
        svc.enqueue_leave("data-1")
        svc.step_cycle()
        victim = svc.run.data_users[1]
        assert not victim.alive
        assert svc.counters["leaves"] == 1
        with pytest.raises(ServiceError):
            svc.enqueue_leave("data-99")
        svc.shutdown()

    def test_join_capacity_guard(self, tmp_path):
        svc = CellService("cell0", small_cell(num_gps_users=8),
                          serve_config(tmp_path))
        svc.start(resume=False)
        with pytest.raises(ServiceError):
            svc.enqueue_join("gps")  # protocol max is 8
        with pytest.raises(ServiceError):
            svc.enqueue_join("modem")  # unknown service class
        svc.shutdown()

    def test_degradation_sheds_joins_and_throttles_data(self, tmp_path):
        svc = CellService("cell0", small_cell(),
                          serve_config(tmp_path, lag_budget_s=1.0,
                                       lag_recover_s=0.25,
                                       degrade_factor=0.25))
        svc.start(resume=False)
        base = svc.run.sources[0].mean_interarrival
        svc.note_lag(2.0)  # over budget -> degrade op enqueued
        svc.step_cycle()
        assert svc.degraded
        assert svc.admission.degraded
        # Non-GPS sources throttled by 1/degrade_factor; GPS units have
        # no Poisson source to throttle -- their reporting is untouched.
        assert svc.run.sources[0].mean_interarrival == base / 0.25
        with pytest.raises(DegradedError):
            svc.enqueue_join("data")
        assert svc.counters["joins_shed"] == 1
        svc.note_lag(0.0)  # recovered -> exit op enqueued
        svc.step_cycle()
        assert not svc.degraded
        assert svc.run.sources[0].mean_interarrival == base
        assert svc.counters["degrade_transitions"] == 2
        # Both transitions were journaled for deterministic replay.
        kinds = [op["op"]["op"] for op in svc.journal.load().ops]
        assert kinds.count("degrade") == 2
        svc.shutdown()

    def test_stabilize_probe_reports_recovery(self, tmp_path):
        svc = CellService("cell0", small_cell(),
                          serve_config(tmp_path))
        svc.start(resume=False)
        for _ in range(3):
            svc.step_cycle()
        svc.enqueue_faults("crash:data-0@1;restart:data-0@3;"
                           "cf_storm:*@1+2", probe=True, window=10)
        for _ in range(16):
            svc.step_cycle()
        report = svc.probe["report"]
        assert report["final"], report
        assert report["ok"], report
        assert report["cycles_to_converge"] <= 10
        assert report["cycles_to_gps"] <= 10
        svc.shutdown()


# -- resume: replay + verification -------------------------------------------


class TestResume:
    def _soak(self, tmp_path, cycles_after=12):
        svc = CellService("cell0", small_cell(),
                          serve_config(tmp_path))
        svc.start(resume=False)
        for _ in range(4):
            svc.step_cycle()
        svc.enqueue_join("data")
        svc.enqueue_load(1.5)
        svc.enqueue_faults("crash:data-0@1;restart:data-0@3")
        for _ in range(cycles_after):
            svc.step_cycle()
        return svc

    def test_replay_restores_identical_state(self, tmp_path):
        svc = self._soak(tmp_path)
        expected_sim = svc._sim_counters()
        expected_serve = dict(svc.counters)
        cycle = svc.cycle
        svc.journal.lock.release()  # the process "died"

        resumed = CellService("cell0", small_cell(),
                              serve_config(tmp_path))
        resumed.start(resume=True)
        assert resumed.cycle == cycle
        assert resumed._sim_counters() == expected_sim
        assert resumed.counters == expected_serve
        assert resumed.state == RUNNING
        assert resumed.run.data_users[-1].name == "data-4"
        # Post-resume cycles stay invariant-clean (self-stabilization).
        before = resumed.run.stats.invariant_violations
        for _ in range(10):
            resumed.step_cycle()
        assert resumed.run.stats.invariant_violations == before
        assert resumed.status()["resume_clean"] is True
        resumed.shutdown()

    def test_resume_after_torn_tail(self, tmp_path):
        svc = self._soak(tmp_path)
        svc.journal.lock.release()
        with open(svc.journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "snapshot", "cycle": 99')  # torn
        resumed = CellService("cell0", small_cell(),
                              serve_config(tmp_path))
        resumed.start(resume=True)
        assert resumed.cycle == svc.cycle
        resumed.shutdown()
        events = [record["event"]
                  for record in resumed.journal.load().events]
        assert "resumed" in events

    def test_resume_refuses_foreign_config(self, tmp_path):
        svc = self._soak(tmp_path, cycles_after=2)
        svc.journal.lock.release()
        imposter = CellService("cell0", small_cell(seed=99),
                               serve_config(tmp_path))
        with pytest.raises(ServiceError, match="different cell config"):
            imposter.start(resume=True)

    def test_resume_detects_snapshot_divergence(self, tmp_path):
        svc = self._soak(tmp_path, cycles_after=2)
        svc.journal.lock.release()
        # Corrupt the journal's last snapshot: claim one more uplink
        # transmission than the deterministic replay will produce.
        with open(svc.journal.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index in range(len(lines) - 1, -1, -1):
            record = json.loads(lines[index])
            if record["kind"] == "snapshot":
                record["counters"]["uplink_transmissions"] += 1
                lines[index] = json.dumps(record) + "\n"
                break
        with open(svc.journal.path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        resumed = CellService("cell0", small_cell(),
                              serve_config(tmp_path))
        with pytest.raises(ResumeIntegrityError, match="diverged"):
            resumed.start(resume=True)

    def test_double_resume_blocked_by_live_lock(self, tmp_path):
        svc = self._soak(tmp_path, cycles_after=2)
        # Fake a *different* live process holding the journal.
        with open(svc.journal.lock.path, "w",
                  encoding="utf-8") as handle:
            handle.write("1\n")
        rival = CellService("cell0", small_cell(),
                            serve_config(tmp_path))
        with pytest.raises(JournalLockedError):
            rival.start(resume=True)
        os.unlink(svc.journal.lock.path)


# -- seeded re-registration jitter (satellite) --------------------------------


class TestEvictionBackoffJitter:
    def test_jittered_run_is_bit_identical(self):
        from repro.faults.schedule import cf_storm

        # A CF storm longer than the lease evicts every live
        # subscriber; their eviction detections all draw jittered
        # backoffs, which must come from the seeded streams.
        config = small_cell(cycles=60, warmup_cycles=10,
                            faults=(cf_storm(15, 8),))
        first = build_cell(config)
        first.sim.run(until=config.duration)
        second = build_cell(config)
        second.sim.run(until=config.duration)
        assert first.stats.summary() == second.stats.summary()
        assert first.stats.evictions_detected > 0

    def test_jitter_window_is_bounded_whole_cycles(self):
        config = small_cell(cycles=40, warmup_cycles=5,
                            eviction_backoff_jitter_cycles=3)
        run = build_cell(config)
        run.sim.run(until=10 * timing.CYCLE_LENGTH)
        sub = run.data_users[0]
        seen = set()
        for _ in range(40):
            sub.state = "active"
            sub._suspect_eviction()
            delta = sub._reregister_not_before - run.sim.now
            cycles = delta / timing.CYCLE_LENGTH
            assert abs(cycles - round(cycles)) < 1e-9
            assert 0 <= round(cycles) <= 3
            seen.add(round(cycles))
        assert seen == {0, 1, 2, 3}  # the whole window is reachable

    def test_crash_clears_pending_backoff(self):
        config = small_cell(cycles=40, warmup_cycles=5,
                            eviction_backoff_jitter_cycles=3)
        run = build_cell(config)
        run.sim.run(until=10 * timing.CYCLE_LENGTH)
        sub = run.data_users[0]
        sub.state = "active"
        while True:
            sub._suspect_eviction()
            if sub._reregister_not_before > run.sim.now:
                break
            sub.state = "active"
        sub.crash()
        assert sub._reregister_not_before == 0.0

    def test_zero_jitter_means_no_wait(self):
        config = small_cell(cycles=40, warmup_cycles=5,
                            eviction_backoff_jitter_cycles=0)
        run = build_cell(config)
        run.sim.run(until=10 * timing.CYCLE_LENGTH)
        sub = run.data_users[0]
        sub.state = "active"
        sub._suspect_eviction()
        assert sub._reregister_not_before == 0.0


# -- the supervisor -----------------------------------------------------------


class TestSupervisor:
    def test_runs_to_max_cycles_and_drains(self, tmp_path):
        sup = Supervisor(serve_config(tmp_path, cells=2, max_cycles=8),
                         small_cell())
        sup.start()
        code = sup.run()
        sup.join(timeout=10.0)
        assert code == 0
        for name in ("cell0", "cell1"):
            cell = sup.cells[name]
            assert cell.state == STOPPED
            assert cell.cycle == 8
            log = ServiceJournal(f"t-{name}",
                                 root=str(tmp_path)).load()
            assert log.clean_shutdown
            assert log.snapshot_cycle == 8
        # Independent cells were decorrelated by seed.
        assert sup.cells["cell0"].cell_config.seed != \
            sup.cells["cell1"].cell_config.seed

    def test_run_returns_when_last_cell_stops(self, tmp_path,
                                              monkeypatch):
        # The last worker's exit wakes run(); it does not wait out a tick.
        monkeypatch.setattr("repro.serve.supervisor._TICK_S", 10.0)
        sup = Supervisor(serve_config(tmp_path, cells=1, max_cycles=5),
                         small_cell())
        sup.start()
        began = time.monotonic()
        code = sup.run()
        elapsed = time.monotonic() - began
        sup.join(timeout=10.0)
        assert code == 0
        assert sup.cells["cell0"].cycle == 5
        assert elapsed < 2.0

    def test_watchdog_restarts_stalled_cell(self, tmp_path):
        sup = Supervisor(
            serve_config(tmp_path, cycle_period_s=0.005,
                         stall_timeout_s=0.4, max_restarts=3),
            small_cell())
        sup.start()
        runner = threading.Thread(target=sup.run, daemon=True)
        runner.start()
        deadline = time.monotonic() + 20.0
        while not sup.ready and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sup.ready
        first = sup.cells["cell0"]
        cycle_before = first.cycle
        first.request_stall(30.0)  # wedge the worker well past timeout
        while sup.cells["cell0"] is first \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        replacement = sup.cells["cell0"]
        assert replacement is not first, "watchdog never fired"
        assert first.cancelled.is_set()
        while not replacement.ready and time.monotonic() < deadline:
            time.sleep(0.02)
        assert replacement.ready
        # The replacement resumed from the journal, not from zero.
        assert replacement.cycle >= cycle_before
        assert sup.restarts["cell0"] == 1
        while replacement.cycle < cycle_before + 3 \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert replacement.cycle >= cycle_before + 3
        sup.request_shutdown()
        runner.join(timeout=10.0)
        sup.join(timeout=10.0)
        assert replacement.state == STOPPED


# -- fault history: per-cycle cost and memory stay flat ---------------------


def dense_cell(**overrides) -> CellConfig:
    """The paper's maximum population: 14 data + 8 GPS users."""
    defaults = dict(num_data_users=14, num_gps_users=8,
                    liveness_lease_cycles=8, seed=3)
    defaults.update(overrides)
    return CellConfig(**defaults)


class TestFaultHistory:
    def _forward_calls(self, tmp_path, storms):
        """Python calls made by one delivery to data-0's forward callback
        after ``storms`` runtime storms, one per cycle, and 5 more cycles.

        The probe is a CF set after every storm window, in a frame the
        subscriber ignores, so what is counted is the storm filtering.
        """
        svc = CellService("cell0", dense_cell(),
                          serve_config(tmp_path, name=f"s{storms}"))
        svc.start(resume=False)
        for _ in range(storms):
            svc.enqueue_faults("cf_storm:*@1+1")
            svc.step_cycle()
        for _ in range(5):
            svc.step_cycle()
        sub = svc.run.data_users[0]
        deliver = sub.forward_channel.receivers[sub.ein][1]
        probe = Transmission("bs", SimpleNamespace(kind="probe"),
                             svc.run.sim.now, 0.0, kind="cf1")
        calls = []
        sys.setprofile(lambda frame, event, arg:
                       calls.append(event) if event == "call" else None)
        try:
            deliver(probe, True)
        finally:
            sys.setprofile(None)
        svc.shutdown()
        return len(calls)

    def test_storm_cost_does_not_grow_with_history(self, tmp_path):
        one = self._forward_calls(tmp_path, 1)
        many = self._forward_calls(tmp_path, 200)
        assert abs(many - one) <= 2, (one, many)

    def test_runtime_injectors_are_released(self, tmp_path):
        svc = CellService("cell0", dense_cell(), serve_config(tmp_path))
        svc.start(resume=False)
        for _ in range(50):
            svc.enqueue_faults("cf_storm:*@1+1;fade:gps-0@1+2*0.9;"
                               "crash:data-1@1;restart:data-1@2")
            svc.step_cycle()
        for _ in range(10):
            svc.step_cycle()
        gc.collect()
        live = [obj for obj in gc.get_objects()
                if isinstance(obj, FaultInjector)
                and obj.sim is svc.run.sim]
        svc.shutdown()
        assert live == []

    def test_storm_history_is_pinned(self, tmp_path):
        """100 overlapping runtime bursts; the counts are the ones the
        per-injector storm closures produced before the storm gate."""
        svc = CellService("cell0", dense_cell(
            load_index=0.8, eviction_backoff_jitter_cycles=2),
            serve_config(tmp_path))
        svc.start(resume=False)
        for cycle in range(300):
            if cycle % 3 == 0:
                svc.enqueue_faults(f"cf_storm:*@{cycle % 2}+1;"
                                   f"cf_storm:data-{cycle % 14}@0+2")
            svc.step_cycle()
        drops = svc.run.stats.cf_storm_drops
        counters = svc._sim_counters()
        svc.shutdown()
        assert drops == 4600
        assert counters == {
            "registration_attempts": 1280,
            "registrations_completed": 95,
            "lease_evictions": 83,
            "evictions_detected": 41,
            "invariant_violations": 0,
            "faults_injected": 200,
            "cf_losses": 2299,
            "uplink_transmissions": 3844,
            "uplink_collisions": 1389,
        }


class _Unresolved(MetricsRegistry):
    """Every read of ``generation`` is new, so no publisher reuses a
    child: each publish resolves its children afresh, as publishers did
    before they cached them."""

    def __init__(self, enabled: bool = True):
        self._reads = 0
        super().__init__(enabled)

    @property
    def generation(self) -> int:
        self._reads += 1
        return self._reads

    @generation.setter
    def generation(self, value: int) -> None:
        pass


#: case -> (registry enabled at start, what happens before cycle 7).
LIFECYCLES = {
    "enabled-mid-run": (False, MetricsRegistry.enable),
    "disabled-mid-run": (True, MetricsRegistry.disable),
    "reset-mid-run": (True, MetricsRegistry.reset),
}


def _lifecycle(tmp_path, registry, event):
    svc = CellService("cell0", small_cell(), serve_config(tmp_path),
                      registry=registry)
    svc.start(resume=False)
    for cycle in range(1, 13):
        if cycle == 7:
            event(registry)
        svc.step_cycle()
        svc.note_lag(0.001 * cycle)
    svc.shutdown()
    return svc.recorder.points, registry.rows()


@pytest.mark.parametrize("case", sorted(LIFECYCLES))
def test_cached_metric_children_follow_registry_lifecycle(tmp_path, case):
    enabled, event = LIFECYCLES[case]
    points, rows = _lifecycle(tmp_path / "cached",
                              MetricsRegistry(enabled=enabled), event)
    _points, uncached = _lifecycle(tmp_path / "uncached",
                                   _Unresolved(enabled=enabled), event)
    assert rows == uncached
    values = {(row["name"], row["labels"].get("service")): row.get("value")
              for row in rows}
    # Six cycles are published: 7-12, or 1-6 when disabled mid-run.
    published = points[:6] if case == "disabled-mid-run" else points[6:]
    assert values[("osu_serve_cycles_total", None)] == 6
    assert values[("osu_serve_lag_seconds", None)] \
        == (0.006 if case == "disabled-mid-run" else 0.012)
    assert values[("osu_cycle", None)] == published[-1].cycle
    assert values[("osu_uplink_collisions_total", None)] \
        == sum(point.uplink_collisions for point in published)
    assert values[("osu_registered_users", "data")] \
        == published[-1].registered_data


# -- control plane ------------------------------------------------------------


def _get(port, path):
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}",
                timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _post(port, path, payload):
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestControlPlane:
    @pytest.fixture()
    def service(self, tmp_path):
        sup = Supervisor(
            serve_config(tmp_path, cycle_period_s=0.005),
            small_cell())
        control = ControlServer(sup)
        control.start()
        sup.start()
        runner = threading.Thread(target=sup.run, daemon=True)
        runner.start()
        deadline = time.monotonic() + 20.0
        while not sup.ready and time.monotonic() < deadline:
            time.sleep(0.01)
        yield sup, control
        sup.request_shutdown()
        runner.join(timeout=10.0)
        sup.join(timeout=10.0)
        control.stop()

    def test_endpoints(self, service):
        sup, control = service
        port = control.port

        status, body = _get(port, "/healthz")
        assert status == 200
        assert json.loads(body)["ready"] is True

        status, body = _get(port, "/status")
        payload = json.loads(body)
        assert payload["cells"][0]["state"] == "running"

        status, body = _get(port, "/metrics")
        assert status == 200
        assert "osu_serve_cycles_total" in body
        assert 'cell="cell0"' in body

        status, body = _post(port, "/cells/cell0/load",
                             {"factor": 2.0})
        assert status == 202
        status, body = _post(port, "/cells/cell0/join",
                             {"service": "data"})
        assert status == 202
        assert json.loads(body)["enqueued"]["name"] == "data-4"
        status, body = _post(port, "/cells/cell0/faults",
                             {"schedule": "cf_storm:*@1+2",
                              "probe": True})
        assert status == 202

        status, _ = _post(port, "/cells/nope/load", {"factor": 1.0})
        assert status == 404
        status, _ = _post(port, "/cells/cell0/load", {"factor": 1e9})
        assert status == 400
        status, _ = _get(port, "/nope")
        assert status == 404

        cell = sup.cells["cell0"]
        deadline = time.monotonic() + 20.0
        while cell.counters["joins_data"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert cell.counters["joins_data"] == 1
        assert len(cell.run.data_users) == 5

    def test_shutdown_endpoint_drains(self, service):
        sup, control = service
        status, _ = _post(control.port, "/shutdown", {})
        assert status == 200
        deadline = time.monotonic() + 20.0
        while not sup.done and time.monotonic() < deadline:
            time.sleep(0.02)
        assert sup.done
        assert sup.cells["cell0"].state == STOPPED
        status, body = _get(control.port, "/healthz")
        assert status == 503


# -- the acceptance soak: SIGKILL, resume, stabilize --------------------------


def _parse_counters(text):
    counters = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        if "_total" in name:
            counters[name] = float(value)
    return counters


@pytest.mark.slow
def test_sigkill_resume_soak(tmp_path):
    """Kill -9 a soak mid-run; --resume must restore a clean service.

    Asserts the PR's acceptance criteria: /healthz ready after resume,
    zero invariant violations within the stabilization window, and
    every exported counter monotonic across the restart boundary.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    port_file = str(tmp_path / "port")
    args = [sys.executable, "-m", "repro", "serve",
            "--name", "soak", "--journal-dir", str(tmp_path),
            "--cycle-period", "0.01", "--checkpoint-every", "1",
            "--data-users", "4", "--gps-users", "2", "--seed", "5",
            "--stabilize-window", "10", "--port-file", port_file]

    def wait_port():
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                with open(port_file, "r", encoding="utf-8") as handle:
                    return int(handle.read().strip())
            except (OSError, ValueError):
                time.sleep(0.05)
        raise AssertionError("control plane never came up")

    def wait_ready(port):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                status, _ = _get(port, "/healthz")
                if status == 200:
                    return
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.05)
        raise AssertionError("service never became ready")

    victim = subprocess.Popen(args, env=env, cwd=REPO_ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
    try:
        port = wait_port()
        wait_ready(port)
        # Stir the pot: a fault burst and a runtime join mid-soak.
        status, _ = _post(port, "/cells/cell0/faults",
                          {"schedule": "crash:data-0@1;"
                                       "restart:data-0@3;"
                                       "cf_storm:*@1+2",
                           "probe": True})
        assert status == 202
        status, _ = _post(port, "/cells/cell0/join",
                          {"service": "data"})
        assert status in (202, 503)
        time.sleep(1.2)  # let cycles, snapshots, and faults happen
        _, metrics_before = _get(port, "/metrics")
        _, status_body = _get(port, "/status")
        cycle_before = json.loads(status_body)["cells"][0]["cycle"]
        assert cycle_before > 10
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        assert victim.returncode == -signal.SIGKILL
    finally:
        if victim.poll() is None:
            victim.kill()

    os.unlink(port_file)
    resumed = subprocess.Popen(args + ["--resume"], env=env,
                               cwd=REPO_ROOT,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
    try:
        port = wait_port()
        wait_ready(port)
        # Wait until (a) the pre-kill cycle count is passed so counter
        # comparisons are apples-to-apples, and (b) the stabilization
        # window after resume has been observed.
        deadline = time.monotonic() + 60.0
        final = None
        while time.monotonic() < deadline:
            _, body = _get(port, "/status")
            final = json.loads(body)["cells"][0]
            if final["cycle"] >= cycle_before + 10 \
                    and final["resume_clean"] is not None:
                break
            time.sleep(0.1)
        assert final is not None
        assert final["cycle"] >= cycle_before + 10, final
        # Self-stabilization: K cycles after resume, no new violations.
        assert final["resume_clean"] is True, final
        assert final["violations_since_resume"] == 0, final
        _, metrics_after = _get(port, "/metrics")
        before = _parse_counters(metrics_before)
        after = _parse_counters(metrics_after)
        regressions = {
            name: (value, after.get(name))
            for name, value in before.items()
            if name in after and after[name] < value}
        assert not regressions, (
            f"counters moved backwards across resume: {regressions}")
        # Clean drain on SIGTERM.
        resumed.send_signal(signal.SIGTERM)
        out, err = resumed.communicate(timeout=60)
        assert resumed.returncode == 0, err.decode()
        stopped = json.loads(out.decode().splitlines()[-1])
        assert stopped["event"] == "stopped"
        assert stopped["cells"][0]["state"] == "stopped"
    finally:
        if resumed.poll() is None:
            resumed.kill()
            resumed.communicate(timeout=30)

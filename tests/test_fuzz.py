"""The fuzz engine: generation, oracles, shrinking, campaigns, corpus.

The acceptance demo at the bottom re-discovers a real, previously-fixed
bug: flipping ``uid_allocation`` back to ``lowest_free`` re-opens the
uid-reuse window (a lease-evicted zombie and the recycled uid's new
holder both deliver the same forward packets), and the campaign must
find it, shrink it, and bucket it with no case-specific help.
"""

import json
import subprocess
import sys

import pytest

from repro.core.base_station import BaseStation
from repro.core.cell import build_cell
from repro.core.config import CellConfig
from repro.core.registration import RegistrationModule
from repro.core.subscriber import SubscriberBase
from repro.engine.policy import PointFailure
from repro.engine.telemetry import EngineStats, publish_to_registry
from repro.faults.injector import StormGate
from repro.faults.schedule import parse_faults
from repro.fuzz import corpus
from repro.fuzz.campaign import run_campaign
from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import CampaignGenerator, settle_cycles
from repro.fuzz.oracles import (
    Violation,
    bucket_of,
    normalize_fingerprint,
    watch_hearing,
)
from repro.fuzz.runner import run_fuzz_case
from repro.fuzz.shrink import first_failure, shrink_case
from repro.lint.checker import scope_for_path
from repro.phy import timing
from repro.phy.channel import Transmission

DEMO_OVERRIDES = {"uid_allocation": "lowest_free"}
DEMO_BUCKET = "conservation:flow:forward-packets"


class TestGenerator:
    def test_case_is_pure_function_of_seed_and_index(self):
        gen = CampaignGenerator(42)
        # Draw out of order, redundantly, and from a fresh generator:
        # identical cases every time.
        a = gen.case(3)
        gen.case(7)
        b = gen.case(3)
        c = CampaignGenerator(42).case(3)
        assert a == b == c

    def test_different_seeds_and_indices_differ(self):
        gen = CampaignGenerator(42)
        assert gen.case(0) != gen.case(1)
        assert gen.case(0) != CampaignGenerator(43).case(0)

    def test_cases_are_legal_configs(self):
        gen = CampaignGenerator(9)
        for case in gen.cases(12):
            config = case.cell_config()  # raises if out of bounds
            assert config.check_invariants
            assert config.num_gps_users <= 8
            assert config.warmup_cycles < config.cycles

    def test_overrides_apply_and_sizing_follows(self):
        gen = CampaignGenerator(9, overrides={
            "liveness_lease_cycles": 12, "num_gps_users": 2})
        for case in gen.cases(6):
            config = dict(case.config_items)
            assert config["liveness_lease_cycles"] == 12
            assert config["num_gps_users"] == 2
            # Sizing saw the forced lease: room for the settle tail.
            assert case.cycles >= settle_cycles(config)

    def test_json_round_trip(self):
        case = CampaignGenerator(5).case(2)
        blob = json.dumps(case.to_json(), sort_keys=True)
        again = FuzzCase.from_json(json.loads(blob))
        assert again == case

    def test_from_json_rejects_wrong_schema(self):
        data = CampaignGenerator(5).case(0).to_json()
        data["schema"] = "something/else@9"
        with pytest.raises(ValueError):
            FuzzCase.from_json(data)

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError):
            FuzzCase(campaign_seed=1, index=0, mode="cell",
                     config_items=(("no_such_field", 3),),
                     faults_text="", ops=())


class TestOracles:
    def test_fingerprint_collapses_identities(self):
        a = normalize_fingerprint("gps uid 3 leaked slot 5")
        b = normalize_fingerprint("gps uid 61 leaked slot 0")
        assert a == b == "gps uid # leaked slot #"

    def test_bucket_is_highest_priority_earliest(self):
        violations = [
            Violation("stabilization", 50, "gps-zombie", "m"),
            Violation("invariants", 60, "registry: #", "m"),
        ]
        violations.sort(key=lambda v: v.oracle)  # any order in
        assert bucket_of(sorted(
            violations, key=lambda v: ("invariants" != v.oracle, v.cycle)
        )) == "invariants:registry: #"
        assert bucket_of([]) is None

    def test_clean_case_passes_all_oracles(self):
        verdict = run_fuzz_case(CampaignGenerator(1).case(1))
        assert verdict["ok"]
        assert verdict["bucket"] is None
        assert verdict["violations"] == []
        assert verdict["case"]["index"] == 1

    def test_differential_flag_is_only_recorded(self):
        # Every eighth cell case still carries the flag, because the
        # fuzz digests hash the case JSON; it changes nothing else.
        case = CampaignGenerator(1).case(8)
        assert case.differential
        assert not CampaignGenerator(1).case(1).differential
        verdict = run_fuzz_case(case)
        assert verdict["ok"], verdict["violations"]
        assert verdict["case"]["differential"] is True


class TestOraclesMustFire:
    """Each oracle fires when the mechanism it guards is broken.

    The case passes unpatched: on a perfect channel a fade silences
    gps-0 for longer than its 6-cycle lease, the base station releases
    the unit's record, and the unit detects the eviction and registers
    again.  Each test breaks one mechanism with a monkeypatch and
    asserts that the oracle guarding it objects.  Conservation's
    must-fire test is the uid-reuse demo (``TestKnownBugDemo``).
    """

    CASE = FuzzCase(
        campaign_seed=0, index=0, mode="cell",
        config_items=tuple(sorted({
            "num_data_users": 2, "num_gps_users": 2, "load_index": 0.3,
            "error_model": "perfect", "liveness_lease_cycles": 6,
            "cycles": 70, "warmup_cycles": 8, "seed": 11,
        }.items())),
        faults_text="fade:gps-0@20+8")

    def _fired(self):
        verdict = run_fuzz_case(self.CASE)
        return {violation["oracle"] for violation in verdict["violations"]}

    def test_case_passes_unpatched(self):
        verdict = run_fuzz_case(self.CASE)
        assert verdict["ok"], verdict["violations"]
        assert verdict["summary"]["evictions_detected"] > 0

    def test_stabilization_fires_without_eviction_detection(
            self, monkeypatch):
        monkeypatch.setattr(SubscriberBase, "_suspect_eviction",
                            lambda self: None)
        assert "stabilization" in self._fired()

    def test_gps_deadline_fires_when_schedule_skips_a_unit(
            self, monkeypatch):
        make_cf = BaseStation._make_cf

        def skipping(self, record, which):
            cf = make_cf(self, record, which)
            if cf.cycle % 2:
                cf.gps_schedule[0] = None  # a fresh list per CF
            return cf

        monkeypatch.setattr(BaseStation, "_make_cf", skipping)
        assert "gps_deadline" in self._fired()

    def test_invariants_fires_when_release_keeps_the_ein(
            self, monkeypatch):
        def release(self, uid):
            record = self._by_uid.pop(uid, None)
            if record is not None:
                self._active_counts[record.service] -= 1
            return record

        monkeypatch.setattr(RegistrationModule, "release", release)
        assert "invariants" in self._fired()


class TestReleaseHearing:
    def test_storm_dropped_sets_are_not_heard(self):
        # The watch sits inside the unit's storm gate, so a set the
        # storm drops reaches it not ok.
        config = CellConfig(num_data_users=1, num_gps_users=1,
                            cycles=20, warmup_cycles=2,
                            faults=parse_faults("cf_storm:gps-0@5+2"))
        run = build_cell(config)
        hearing = {}
        watch_hearing(run, hearing)
        unit = run.gps_units[0]
        _, gate = run.base_station.forward.receivers[unit.ein]
        watch = hearing[unit.ein]
        assert isinstance(gate, StormGate) and gate.deliver is watch
        watch.deliver = lambda transmission, ok: None  # stub the unit

        def cf1(cycle):
            return Transmission(sender="base-station", payload=None,
                                start=cycle * timing.CYCLE_LENGTH,
                                duration=timing.CF1_END, kind="cf1")

        gate(cf1(6), True)  # inside the storm: dropped
        assert watch.heard == 0
        gate(cf1(8), True)  # the unit holds no record yet: heard
        assert watch.heard == 1


class TestCaseDefaults:
    """A case without an override runs CellConfig's value, and its
    accessors, its work and the shrinker read that same value."""

    CASE = FuzzCase(campaign_seed=0, index=0, mode="cell")

    def test_cycles_are_the_cells(self):
        assert self.CASE.cycles == self.CASE.cell_config().cycles == 200

    def test_work_counts_the_default_population(self):
        assert self.CASE.work == self.CASE.cycles * 13

    def test_shrinker_sheds_default_data_users(self):
        proposed = []

        def passing(candidate):
            proposed.append(candidate.cell_config().num_data_users)
            return {"ok": True, "bucket": None}

        shrink_case(self.CASE, "synthetic:boom", evaluate=passing)
        assert min(proposed) < 9


class TestShrinker:
    def _synthetic(self, case):
        """Fails iff >= 4 data users AND a crash survives in the text.

        Everything else (gps users, ops, loads, extra faults) is noise
        the shrinker should strip.
        """
        config = dict(case.config_items)
        failing = (config.get("num_data_users", 0) >= 4
                   and "crash:" in case.faults_text)
        bucket = "synthetic:boom" if failing else None
        return {"ok": not failing, "bucket": bucket, "violations": []}

    def _noisy_case(self):
        return FuzzCase(
            campaign_seed=99, index=0, mode="cell",
            config_items=tuple(sorted({
                "num_data_users": 9, "num_gps_users": 5,
                "load_index": 0.9, "forward_load_index": 0.4,
                "error_model": "ge", "cycles": 90,
                "warmup_cycles": 12, "seed": 7,
            }.items())),
            faults_text=("crash:data-0@20;fade:gps-*@30+6*0.8;"
                         "cf_storm:*@40+2"),
            ops=(), differential=True)

    def test_strips_noise_keeps_failure_mode(self):
        result = shrink_case(self._noisy_case(), "synthetic:boom",
                             evaluate=self._synthetic, max_evals=200)
        config = dict(result.case.config_items)
        assert self._synthetic(result.case)["bucket"] == "synthetic:boom"
        assert config["num_data_users"] == 4   # minimal, not below
        assert config["num_gps_users"] == 0
        assert "crash:" in result.case.faults_text
        assert "fade:" not in result.case.faults_text
        assert "cf_storm:" not in result.case.faults_text
        assert result.case.differential  # recorded, never shrunk
        assert result.accepted > 0
        assert "shrunk from case" in result.case.note

    def test_deterministic(self):
        one = shrink_case(self._noisy_case(), "synthetic:boom",
                          evaluate=self._synthetic, max_evals=200)
        two = shrink_case(self._noisy_case(), "synthetic:boom",
                          evaluate=self._synthetic, max_evals=200)
        assert one.case == two.case
        assert one.evals == two.evals

    def test_respects_eval_budget(self):
        calls = []

        def counting(case):
            calls.append(case)
            return self._synthetic(case)

        shrink_case(self._noisy_case(), "synthetic:boom",
                    evaluate=counting, max_evals=10)
        assert len(calls) <= 10

    def test_crashing_evaluator_keeps_parent(self):
        def fragile(case):
            if dict(case.config_items)["num_gps_users"] < 5:
                raise RuntimeError("evaluator crashed")
            return {"ok": False, "bucket": "synthetic:boom"}

        result = shrink_case(self._noisy_case(), "synthetic:boom",
                             evaluate=fragile, max_evals=40)
        assert dict(result.case.config_items)["num_gps_users"] == 5

    def test_first_failure_maps_buckets(self):
        verdicts = [
            None,
            {"ok": True, "bucket": None},
            {"ok": False, "bucket": "a:x", "case": 1},
            {"ok": False, "bucket": "a:x", "case": 2},
            {"ok": False, "bucket": "b:y", "case": 3},
        ]
        mapped = first_failure(verdicts)
        assert mapped["a:x"]["case"] == 1
        assert mapped["b:y"]["case"] == 3


class TestCampaign:
    def test_bit_reproducible_across_job_counts(self):
        one = run_campaign(11, budget=4, jobs=1, shrink=False)
        two = run_campaign(11, budget=4, jobs=2, shrink=False)
        assert one.digest == two.digest
        assert one.ok == two.ok == 4
        assert one.buckets == two.buckets == {}

    def test_report_json_shape(self):
        report = run_campaign(11, budget=2, jobs=1, shrink=False)
        blob = report.to_json()
        assert blob["schema"] == "repro/fuzz-report@1"
        assert blob["budget"] == 2
        assert blob["failed"] == 0
        assert len(blob["digest"]) == 16


class TestKnownBugDemo:
    """The acceptance scenario: revert the uid-allocation fix, and the
    campaign rediscovers the uid-reuse bug on its own."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(1, budget=6, jobs=1,
                            overrides=dict(DEMO_OVERRIDES),
                            shrink=True, shrink_evals=40)

    def test_bug_found_and_bucketed(self, report):
        assert DEMO_BUCKET in report.buckets
        info = report.buckets[DEMO_BUCKET]
        assert info["count"] >= 1
        assert "exceeds" in info["example"]["message"]

    def test_reproducer_was_shrunk_and_reproduces(self, report):
        info = report.buckets[DEMO_BUCKET]
        reproducer = FuzzCase.from_json(info["reproducer"])
        assert info["shrink"]["accepted"] > 0
        config = dict(reproducer.config_items)
        assert config["uid_allocation"] == "lowest_free"
        verdict = run_fuzz_case(reproducer)
        assert verdict["bucket"] == DEMO_BUCKET

    def test_same_campaign_without_override_is_clean(self):
        report = run_campaign(1, budget=6, jobs=1, shrink=False)
        assert report.buckets == {}


class TestCorpus:
    def test_checked_in_corpus_replays(self):
        """Tier-1 wiring: every checked-in entry must meet its
        expectation (pass entries clean, fail entries reproducing)."""
        reports = corpus.replay_corpus(corpus.DEFAULT_CORPUS_DIR)
        assert reports, "corpus is empty -- entries were not checked in"
        bad = [r for r in reports if not r["ok"]]
        assert not bad, bad

    def test_corpus_has_the_demo_reproducer(self):
        entries = dict(corpus.iter_entries(corpus.DEFAULT_CORPUS_DIR))
        fails = [e for e in entries.values()
                 if e["expect"] == corpus.EXPECT_FAIL]
        assert any(e["bucket"] == DEMO_BUCKET for e in fails)

    def test_entry_round_trip(self, tmp_path):
        case = CampaignGenerator(3).case(1)
        entry = corpus.make_entry(case, corpus.EXPECT_PASS,
                                  notes="round trip")
        path = corpus.write_entry(str(tmp_path), entry)
        again = corpus.load_entry(path)
        assert FuzzCase.from_json(again["case"]) == case
        assert again["expect"] == corpus.EXPECT_PASS

    def test_fail_entry_requires_bucket(self):
        case = CampaignGenerator(3).case(1)
        with pytest.raises(ValueError):
            corpus.make_entry(case, corpus.EXPECT_FAIL)

    def test_bucket_id_is_stable_and_safe(self):
        bid = corpus.bucket_id("conservation:flow:forward-packets")
        assert bid == corpus.bucket_id(
            "conservation:flow:forward-packets")
        assert bid.startswith("conservation-")
        assert "/" not in bid and ":" not in bid


class TestCliSurface:
    def test_replay_corpus_entry_exits_zero(self):
        entries = sorted(
            path for path, _ in
            corpus.iter_entries(corpus.DEFAULT_CORPUS_DIR))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "replay",
             entries[0]],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_campaign_json_output(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz",
             "--campaign-seed", "11", "--budget", "2", "--jobs", "1",
             "--no-shrink", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blob = json.loads(proc.stdout)
        assert blob["ok"] == 2

    def test_unknown_action_rejected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2


class TestEngineTelemetrySatellite:
    def test_salvage_and_quarantine_reach_registry(self):
        from repro.obs.registry import MetricsRegistry
        import repro.obs.registry as obs_registry

        registry = MetricsRegistry()
        registry.enable()
        saved = obs_registry.default_registry
        obs_registry.default_registry = lambda: registry
        try:
            def failure(index, kind):
                return PointFailure(index=index, label={}, kind=kind,
                                    error="E", message="m",
                                    attempts=1, elapsed_s=0.1)
            stats = EngineStats(
                spec="t", points=3, executed=3, quarantined=2,
                failures=[failure(0, "timeout"),
                          failure(1, "exception"),
                          failure(2, "timeout")])
            publish_to_registry(stats)
        finally:
            obs_registry.default_registry = saved
        rows = {(row["name"], row["labels"].get("kind")): row["value"]
                for row in registry.rows()}
        assert rows[("engine_point_failures_total", "timeout")] == 2.0
        assert rows[("engine_point_failures_total", "exception")] == 1.0
        assert rows[("engine_recoveries_total", "quarantined")] == 2.0


class TestMaclintScopingSatellite:
    def test_fuzz_generator_is_det_and_hot_scoped(self):
        scope = scope_for_path("src/repro/fuzz/generator.py")
        assert scope.det and scope.hot

    def test_fuzz_reporting_layers_are_det_not_hot(self):
        for module in ("campaign", "corpus", "cli"):
            scope = scope_for_path(f"src/repro/fuzz/{module}.py")
            assert scope.det, module
            assert not scope.hot, module

    def test_det_rule_fires_inside_fuzz(self):
        from repro.lint.checker import check_source
        report = check_source(
            "import random\nrng = random.Random(1)\n",
            "src/repro/fuzz/generator.py")
        assert any(f.rule.startswith("DET") for f in report.findings)

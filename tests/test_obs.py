"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.core.cell import build_cell, finalize_run, run_cell
from repro.core.config import CellConfig
from repro.obs.export import (
    build_manifest,
    config_digest,
    read_jsonl,
    sidecar_paths,
    to_prometheus,
    write_csv,
    write_jsonl,
)
from repro.obs.observe import observe_cell
from repro.obs.profiler import format_rows, merge_rows
from repro.obs.registry import (
    NULL_CHILD,
    HistogramChild,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.render import (
    filter_records,
    gps_verdict,
    render_timeline,
    timeline_digest,
)
from repro.obs.timeline import TimelineRecorder


def small_config(**overrides):
    defaults = dict(num_data_users=4, num_gps_users=2, load_index=0.6,
                    cycles=40, warmup_cycles=10, seed=13)
    defaults.update(overrides)
    return CellConfig(**defaults)


def recorded_run(registry=None, **overrides):
    config = small_config(**overrides)
    run = build_cell(config)
    recorder = TimelineRecorder(run, registry=registry)
    run.sim.run(until=config.duration)
    finalize_run(run)
    return run, recorder


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "help text")
        counter.inc()
        counter.inc(2.5)
        assert counter.labels().value == 3.5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total").inc(-1)

    def test_labelled_children_are_distinct(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "", ("kind",))
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc()
        counter.labels("b").inc(5)
        assert counter.labels(kind="a").value == 2
        assert counter.labels(kind="b").value == 5

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        again = registry.counter("x_total")
        assert first is again
        assert registry.get("x_total") is first

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual", "")
        with pytest.raises(ValueError):
            registry.gauge("dual", "")

    def test_labelnames_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("lbl_total", "", ("a",))
        with pytest.raises(ValueError):
            registry.counter("lbl_total", "", ("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "", ("bad-label",))

    def test_wrong_label_arity_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("arity_total", "", ("a", "b"))
        with pytest.raises(ValueError):
            counter.labels("only-one")
        with pytest.raises(ValueError):
            counter.labels(a="x", wrong="y")

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.labels().value == 7

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_seconds", "", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        child = histogram.labels()
        assert child.count == 4
        assert child.sum == pytest.approx(105.0)
        assert child.cumulative() == [1, 2, 3, 4]

    def test_histogram_merge_adds_observations(self):
        merged, direct = HistogramChild((1.0, 2.0)), HistogramChild((1.0, 2.0))
        for values in ((0.5, 3.0), (1.5, 0.25)):
            part = HistogramChild((1.0, 2.0))
            for value in values:
                part.observe(value)
                direct.observe(value)
            merged.merge(part)
        assert (merged.counts, merged.count) == (direct.counts, 4)
        assert merged.sum == pytest.approx(direct.sum)
        with pytest.raises(ValueError):
            merged.merge(HistogramChild((1.0, 4.0)))

    def test_disabled_registry_hands_out_null_child(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("off_total", "", ("k",))
        child = counter.labels(k="x")
        assert child is NULL_CHILD
        child.inc()
        child.set(3)
        child.observe(1.0)
        registry.enable()
        assert counter.labels(k="x").value == 0

    def test_rows_flat_samples(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "", ("k",)).labels(k="x").inc(2)
        registry.histogram("h_s", "", buckets=(1.0,)).observe(0.5)
        rows = {row["name"]: row for row in registry.rows()}
        assert rows["a_total"]["value"] == 2
        assert rows["a_total"]["labels"] == {"k": "x"}
        assert rows["h_s"]["count"] == 1
        assert rows["h_s"]["buckets"] == {"1.0": 1, "inf": 1}
        json.dumps(registry.rows())  # must be JSON-serializable

    def test_reset_drops_families(self):
        registry = MetricsRegistry()
        registry.counter("gone_total").inc()
        registry.reset()
        assert registry.get("gone_total") is None

    def test_default_registry_starts_disabled_and_swaps(self):
        assert default_registry().enabled is False
        replacement = MetricsRegistry()
        previous = set_default_registry(replacement)
        try:
            assert default_registry() is replacement
        finally:
            set_default_registry(previous)

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", ("code",)) \
            .labels(code="200").inc(3)
        registry.gauge("temp").set(1.5)
        registry.histogram("dur_seconds", "",
                           buckets=(0.1, 1.0)).observe(0.5)
        text = to_prometheus(registry)
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 3' in text
        assert "temp 1.5" in text
        assert 'dur_seconds_bucket{le="0.1"} 0' in text
        assert 'dur_seconds_bucket{le="1"} 1' in text
        assert 'dur_seconds_bucket{le="+Inf"} 1' in text
        assert "dur_seconds_sum 0.5" in text
        assert "dur_seconds_count 1" in text


# -- timeline ---------------------------------------------------------------


class TestTimelineRecorder:
    def test_one_point_per_cycle(self):
        run, recorder = recorded_run()
        assert len(recorder.points) == run.config.cycles
        cycles = [point.cycle for point in recorder.points]
        assert cycles == sorted(cycles)

    def test_does_not_perturb_results(self):
        config = small_config()
        plain = run_cell(config).summary()
        # With the default registry, and with one that takes every
        # publish.
        for registry in (None, MetricsRegistry(enabled=True)):
            observed = observe_cell(config, registry=registry)["summary"]
            assert observed == plain

    def test_gps_deadline_margin_confirms_4s_guarantee(self):
        """The paper's R1-R3 claim, checked from on-air timing."""
        _run, recorder = recorded_run(cycles=60)
        summary = recorder.summary()
        assert summary["gps_deadline_held"] is True
        assert summary["gps_min_margin_s"] >= 0.0
        assert summary["gps_max_gap_s"] <= 4.0
        # every GPS unit actually closed gaps
        assert len(recorder.gps_max_gap_by_unit) == 2

    def test_samples_track_live_state(self):
        _run, recorder = recorded_run()
        assert any(point.uplink_queue_depth > 0
                   for point in recorder.points)
        assert any(point.slot_utilization > 0
                   for point in recorder.points)
        assert sum(point.registrations
                   for point in recorder.points) == 6
        final = recorder.points[-1]
        assert final.registered_data == 4
        assert final.registered_gps == 2

    def test_jsonl_round_trip(self, tmp_path):
        _run, recorder = recorded_run()
        path = tmp_path / "timeline.jsonl"
        count = recorder.write_jsonl(str(path), labels={"load": 0.6})
        records = read_jsonl(str(path))
        assert len(records) == count == len(recorder.points)
        assert all(record["load"] == 0.6 for record in records)
        assert records[0]["cycle"] == recorder.points[0].cycle

    def test_zero_duration_run(self, tmp_path):
        config = small_config()
        run = build_cell(config)
        recorder = TimelineRecorder(run)
        run.sim.run(until=0.0)
        assert recorder.points == []
        summary = recorder.summary()
        assert summary["cycles_sampled"] == 0
        assert summary["gps_deadline_held"] is None
        path = tmp_path / "empty.jsonl"
        assert recorder.write_jsonl(str(path)) == 0

    def test_point_cap_drops_instead_of_growing(self):
        config = small_config()
        run = build_cell(config)
        recorder = TimelineRecorder(run, max_points=5)
        run.sim.run(until=config.duration)
        assert len(recorder.points) == 5
        assert recorder.dropped == config.cycles - 5

    def test_publishes_into_registry(self):
        registry = MetricsRegistry()
        _run, recorder = recorded_run(registry=registry)
        assert registry.get("osu_cycle").labels().value \
            == recorder.points[-1].cycle
        collisions = registry.get("osu_uplink_collisions_total")
        assert collisions.labels().value \
            == sum(point.uplink_collisions
                   for point in recorder.points)
        margins = registry.get("osu_gps_deadline_margin_seconds")
        assert margins.labels().count \
            == sum(1 for point in recorder.points
                   if point.gps_min_margin_s is not None)

    def test_disabled_registry_stays_empty(self):
        registry = MetricsRegistry(enabled=False)
        _run, _recorder = recorded_run(registry=registry)
        registry.enable()
        assert registry.get("osu_cycle") is None


# -- profiler ---------------------------------------------------------------


def build_cycle_calls(rows):
    """Calls of the base station's per-cycle schedule build in a profile."""
    return [row["calls"] for key, row in rows.items()
            if key.endswith("(_build_cycle)")]


class TestProfiler:
    def test_profiled_run_is_bit_identical(self):
        config = small_config()
        observed = observe_cell(config, profile=True)
        assert observed["summary"] == run_cell(config).summary()
        rows = observed["profile"]
        # One schedule build per cycle, plus the one due at the end.
        assert build_cycle_calls(rows) == [config.cycles + 1]
        # Package paths start at repro/, wherever the checkout lives.
        assert any(key.startswith("repro/core/base_station.py:")
                   for key in rows)
        json.dumps(rows)

    def test_merge_rows_adds_calls_and_seconds(self):
        total = {"a.py:1(f)": {"calls": 2, "self_s": 1.0,
                               "total_s": 3.0}}
        merge_rows(total, {
            "a.py:1(f)": {"calls": 1, "self_s": 0.5, "total_s": 0.5},
            "b.py:2(g)": {"calls": 4, "self_s": 0.25, "total_s": 1.0}})
        assert total == {
            "a.py:1(f)": {"calls": 3, "self_s": 1.5, "total_s": 3.5},
            "b.py:2(g)": {"calls": 4, "self_s": 0.25, "total_s": 1.0}}

    def test_format_rows_orders_by_self_time(self):
        rows = {
            "light.py:1(f)": {"calls": 9, "self_s": 0.25,
                              "total_s": 4.0},
            "heavy.py:2(g)": {"calls": 1, "self_s": 0.75,
                              "total_s": 0.75},
            "idle.py:3(h)": {"calls": 1, "self_s": 0.0,
                             "total_s": 0.0}}
        lines = format_rows(rows, limit=2).splitlines()
        assert lines[1].endswith("heavy.py:2(g)")
        assert "75.0%" in lines[1]
        assert lines[2].endswith("light.py:1(f)")
        assert "25.0%" in lines[2]
        assert len(lines) == 4 and lines[3].startswith("(2 of 3 ")

    def test_sweep_merge_is_equal_across_jobs(self, tmp_path, capsys,
                                              fresh_registry):
        from repro.cli import main as cli_main

        merged = []
        for jobs in ("1", "2"):
            metrics = str(tmp_path / f"jobs{jobs}.jsonl")
            assert cli_main(["sweep", "--loads", "0.5,0.9",
                             "--seeds", "1", "--cycles", "20",
                             "--warmup", "5", "--jobs", jobs,
                             "--profile", "--metrics", metrics]) == 0
            profile = json.loads(open(sidecar_paths(metrics)["profile"],
                                      encoding="utf-8").read())
            merged.append(build_cycle_calls(profile))
        capsys.readouterr()
        # Two points of 21 builds each, whichever process ran them.
        assert merged == [[42], [42]]

    def test_profiled_sweep_executes_cached_points(self, tmp_path,
                                                   capsys, monkeypatch):
        from repro.cli import main as cli_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for _ in range(2):
            assert cli_main(["sweep", "--loads", "0.5", "--seeds", "1",
                             "--cycles", "20", "--warmup", "5",
                             "--profile"]) == 0
            assert "(1 executed, 0 cached)" in capsys.readouterr().err


# -- exporters and manifests ------------------------------------------------


class TestExport:
    def test_jsonl_round_trip_and_torn_tail(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(str(path), [{"a": 1}, {"a": 2}])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"a": 3')  # torn: run killed mid-write
        assert read_jsonl(str(path)) == [{"a": 1}, {"a": 2}]

    def test_csv_union_of_fields(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(str(path), [{"a": 1}, {"a": 2, "b": "x"}])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"
        assert lines[2] == "2,x"

    def test_config_digest_stable_and_sensitive(self):
        first = config_digest(small_config())
        again = config_digest(small_config())
        changed = config_digest(small_config(seed=99))
        assert first == again
        assert first != changed

    def test_manifest_fields(self):
        from repro.engine.policy import RunPolicy

        config = small_config(seed=42)
        manifest = build_manifest(
            "run", config=config, policy=RunPolicy(retries=2),
            argv=["run", "--seed", "42"], extra={"note": "hi"})
        assert manifest["schema"] == "repro/manifest@1"
        assert manifest["kind"] == "run"
        assert manifest["seed"] == 42
        assert manifest["config_sha256"] == config_digest(config)
        assert manifest["argv"] == ["run", "--seed", "42"]
        # canonical() projects dataclasses to [type-name, {fields}]
        assert manifest["policy"][1]["retries"] == 2
        assert manifest["note"] == "hi"
        assert manifest["code_fingerprint"]
        json.dumps(manifest)  # must serialize

    def test_sidecar_paths(self):
        paths = sidecar_paths("out/metrics.jsonl")
        assert paths["timeline"] == "out/metrics.jsonl"
        assert paths["manifest"] == "out/metrics.manifest.json"
        assert paths["prometheus"] == "out/metrics.prom"
        assert paths["profile"] == "out/metrics.profile.json"
        odd = sidecar_paths("out/metrics.dat")
        assert odd["manifest"] == "out/metrics.dat.manifest.json"


# -- rendering --------------------------------------------------------------


class TestRender:
    def timeline_records(self):
        _run, recorder = recorded_run()
        return recorder.to_dicts()

    def test_render_timeline_charts_and_verdict(self):
        text = render_timeline(self.timeline_records())
        assert "cycles sampled" in text
        assert "uplink_queue_depth" in text
        assert "GPS deadline check: HELD" in text

    def test_filter_and_groups(self):
        records = [dict(record, load=load, seed=1)
                   for load in (0.5, 0.9)
                   for record in self.timeline_records()]
        kept = filter_records(records, {"load": "0.9"})
        assert kept
        assert all(record["load"] == 0.9 for record in kept)
        text = render_timeline(records)
        assert "merged sweep timeline with 2 groups" in text

    def test_digest(self):
        digest = timeline_digest(self.timeline_records())
        assert digest["records"] == 40
        assert digest["gps_deadline_held"] is True
        assert digest["max_uplink_queue_depth"] > 0
        json.dumps(digest)

    def test_gps_verdict_violated(self):
        records = [{"gps_min_margin_s": -0.5, "gps_max_gap_s": 4.5}]
        assert "VIOLATED" in gps_verdict(records)
        assert "no GPS inter-access gaps" in gps_verdict([{}])


# -- CLI end to end ---------------------------------------------------------


@pytest.fixture
def fresh_registry():
    """Swap in a throwaway default registry (the CLIs enable it)."""
    registry = MetricsRegistry(enabled=False)
    previous = set_default_registry(registry)
    yield registry
    set_default_registry(previous)


RUN_ARGS = ["run", "--cycles", "30", "--warmup", "6",
            "--data-users", "4", "--gps-users", "2"]


class TestObsCli:
    def test_run_with_trace_metrics_profile(self, tmp_path, capsys,
                                            fresh_registry):
        from repro.cli import main as cli_main

        metrics = tmp_path / "m.jsonl"
        trace = tmp_path / "t.jsonl"
        code = cli_main(RUN_ARGS + ["--metrics", str(metrics),
                                    "--profile",
                                    "--trace", str(trace)])
        assert code == 0
        captured = capsys.readouterr()
        assert "simulated 30 cycles" in captured.out
        assert "(_build_cycle)" in captured.err

        timeline = read_jsonl(str(metrics))
        assert len(timeline) == 30
        events = read_jsonl(str(trace))
        assert events and "category" in events[0]

        paths = sidecar_paths(str(metrics))
        manifest = json.loads(
            open(paths["manifest"], encoding="utf-8").read())
        assert manifest["kind"] == "run"
        assert manifest["obs"]["gps_deadline_held"] is True
        prom = open(paths["prometheus"], encoding="utf-8").read()
        assert "# TYPE osu_cycle gauge" in prom
        profile = json.loads(
            open(paths["profile"], encoding="utf-8").read())
        assert build_cycle_calls(profile) == [31]

    def test_run_json_summary_unchanged_by_profile(self, capsys,
                                                   fresh_registry):
        from repro.cli import main as cli_main

        assert cli_main(RUN_ARGS + ["--json"]) == 0
        plain = capsys.readouterr().out
        assert cli_main(RUN_ARGS + ["--json", "--profile"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain
        assert "(_build_cycle)" in profiled.err

    def test_run_without_flags_stays_uninstrumented(
            self, capsys, fresh_registry):
        from repro.cli import main as cli_main

        assert cli_main(RUN_ARGS) == 0
        fresh_registry.enable()
        assert fresh_registry.get("osu_cycle") is None

    def test_sweep_metrics_and_obs_render(self, tmp_path, capsys,
                                          fresh_registry):
        from repro.cli import main as cli_main

        metrics = tmp_path / "sweep.jsonl"
        code = cli_main(["sweep", "--loads", "0.5,0.9",
                         "--seeds", "1", "--cycles", "30",
                         "--warmup", "6", "--no-cache",
                         "--metrics", str(metrics), "--profile"])
        assert code == 0
        capsys.readouterr()

        records = read_jsonl(str(metrics))
        assert len(records) == 60  # 2 loads x 1 seed x 30 cycles
        assert {record["load"] for record in records} == {0.5, 0.9}
        manifest = json.loads(open(
            sidecar_paths(str(metrics))["manifest"],
            encoding="utf-8").read())
        assert manifest["kind"] == "sweep"
        assert manifest["grid"]["loads"] == [0.5, 0.9]
        assert manifest["obs"]["gps_deadline_held"] is True

        code = cli_main(["obs", str(metrics),
                         "--where", "load=0.9"])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "GPS deadline check: HELD" in rendered

        code = cli_main(["obs", str(metrics), "--json"])
        assert code == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["records"] == 60
        assert digest["gps_deadline_held"] is True

    def test_obs_bad_where_and_missing_match(self, tmp_path, capsys,
                                             fresh_registry):
        from repro.cli import main as cli_main

        path = tmp_path / "t.jsonl"
        write_jsonl(str(path), [{"cycle": 0, "load": 0.5}])
        assert cli_main(["obs", str(path), "--where", "junk"]) == 2
        assert cli_main(["obs", str(path),
                         "--where", "load=9.9"]) == 1
        capsys.readouterr()

    def test_experiments_metrics_and_profile(self, tmp_path, capsys,
                                             fresh_registry):
        from repro.experiments.__main__ import main as experiments_main

        metrics = tmp_path / "exp.jsonl"
        code = experiments_main(
            ["fig8a", "--quick", "--no-cache",
             "--metrics", str(metrics)])
        assert code == 0
        captured = capsys.readouterr()
        assert "[metrics] registry -> " in captured.err
        # The experiments CLI has no --profile: `repro run` and
        # `repro sweep` profile the event loop.
        with pytest.raises(SystemExit):
            experiments_main(["fig8a", "--profile"])
        rows = read_jsonl(str(metrics))
        names = {row["name"] for row in rows}
        assert "engine_points_total" in names
        prom = open(sidecar_paths(str(metrics))["prometheus"],
                    encoding="utf-8").read()
        assert "engine_points_total" in prom


# -- integration: engine + faults publish into the registry -----------------


class TestIntegration:
    def test_engine_telemetry_publishes(self):
        from repro.engine.telemetry import EngineStats, telemetry

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            telemetry.record(EngineStats(
                spec="demo", points=3, executed=2, cache_hits=1,
                wall_s=0.5, retries=1, point_seconds=[0.1, 0.2]))
        finally:
            set_default_registry(previous)
        executed = registry.get("engine_points_total") \
            .labels(spec="demo", disposition="executed")
        assert executed.value == 2
        retries = registry.get("engine_recoveries_total") \
            .labels(spec="demo", kind="retries")
        assert retries.value == 1
        seconds = registry.get("engine_point_seconds") \
            .labels(spec="demo")
        assert seconds.count == 2

    def test_invariant_monitor_publishes(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            run_cell(small_config(cycles=20, check_invariants=True))
        finally:
            set_default_registry(previous)
        checks = registry.get("osu_invariant_checks_total")
        # one check per cycle plus the final audit in finalize_run
        assert checks.labels().value == 21
        violations = registry.get("osu_invariant_violations_total")
        assert violations.labels().value == 0

    def test_observed_sweep_spec_values_serialize(self):
        from repro.engine import execute
        from repro.experiments.runner import observed_sweep_spec

        spec = observed_sweep_spec(
            loads=(0.5,), seeds=(1,), profile=True,
            cycles=20, warmup_cycles=5)
        result = execute(spec, cache=False)
        value = result.values[0]
        json.dumps(value)  # cache/parallel compatible
        assert len(value["timeline"]) == 20
        assert value["obs"]["cycles_sampled"] == 20
        assert build_cycle_calls(value["profile"]) == [21]
        assert result.reduced[0]["load"] == 0.5

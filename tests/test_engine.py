"""Engine tests: spec execution, determinism, caching, hashing."""

import json

import pytest

from repro.core.config import CellConfig
from repro.engine import (
    ParallelExecutor,
    Point,
    ResultCache,
    RunSpec,
    SerialExecutor,
    canonical,
    cell_point,
    derive_seed,
    execute,
    get_executor,
    point_key,
    resolve_jobs,
    telemetry,
)
from repro.engine.executors import _Dispatch
from repro.engine.policy import RunPolicy
from repro.engine.spec import group_means, mean_of_summaries, \
    run_cell_summary

SMALL = dict(num_data_users=4, num_gps_users=1, cycles=40,
             warmup_cycles=8)


def small_spec(loads=(0.3, 0.9), seeds=(1, 2)) -> RunSpec:
    points = []
    for load in loads:
        for seed in seeds:
            config = CellConfig(load_index=load, seed=seed, **SMALL)
            points.append(cell_point(config, load=load, seed=seed))
    return RunSpec(name="test", points=tuple(points))


class TestExecutors:
    def test_get_executor_serial(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(3), ParallelExecutor)

    def test_resolve_jobs_env(self, monkeypatch):
        # Only the argument sets the width; the environment does not.
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 1
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1

    def test_parallel_executor_rejects_jobs_1(self):
        with pytest.raises(ValueError):
            ParallelExecutor(1)


class Weighted:
    """A config with a ``work`` estimate."""

    def __init__(self, work: int):
        self.work = work

    def __repr__(self) -> str:
        return f"Weighted({self.work})"


class RecordingPool:
    """A stand-in :class:`WorkerPool`: records each hand-out and has
    the worker's reply waiting at once."""

    def __init__(self, count: int):
        self.count = count
        self.sent = []
        self.replies = {}

    def send(self, worker, request):
        fn, config = request
        self.sent.append(config)
        self.replies[worker] = ("ok", (fn(config), 0.0))

    def ready(self, workers, timeout):
        return [worker for worker in workers if worker in self.replies]

    def recv(self, worker):
        return self.replies.pop(worker)


class TestWorkFirstHandOut:
    def test_largest_work_first_results_in_task_order(self):
        configs = ["first", Weighted(1), Weighted(5), "second",
                   Weighted(3)]
        pool = RecordingPool(count=2)
        report = _Dispatch(pool, [(repr, config) for config in configs],
                           RunPolicy(), None).run()
        assert pool.sent == [configs[2], configs[4], configs[1],
                             "first", "second"]
        assert [outcome.index for outcome in report.outcomes] \
            == list(range(len(configs)))
        assert [outcome.value for outcome in report.outcomes] \
            == [repr(config) for config in configs]


class TestDeterminism:
    def test_serial_and_parallel_summaries_identical(self):
        spec = small_spec()
        serial = execute(spec, jobs=1, cache=False)
        parallel = execute(spec, jobs=2, cache=False)
        assert serial.values == parallel.values  # bit-identical floats
        assert parallel.stats.jobs == 2
        assert parallel.stats.executed == len(spec.points)

    def test_repeated_serial_runs_identical(self):
        spec = small_spec(loads=(0.5,), seeds=(3,))
        first = execute(spec, jobs=1, cache=False)
        second = execute(spec, jobs=1, cache=False)
        assert first.values == second.values


class TestCache:
    def test_warm_run_executes_nothing_and_matches(self, tmp_path):
        spec = small_spec()
        store = ResultCache(str(tmp_path))
        cold = execute(spec, cache=store)
        assert cold.stats.executed == len(spec.points)
        assert cold.stats.cache_hits == 0
        warm = execute(spec, cache=ResultCache(str(tmp_path)))
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(spec.points)
        assert warm.values == cold.values

    def test_config_change_invalidates(self, tmp_path):
        store = ResultCache(str(tmp_path))
        execute(small_spec(loads=(0.3,), seeds=(1,)), cache=store)
        changed = execute(small_spec(loads=(0.4,), seeds=(1,)),
                          cache=ResultCache(str(tmp_path)))
        assert changed.stats.executed == 1

    def test_cache_false_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        execute(small_spec(loads=(0.3,), seeds=(1,)), cache=False)
        assert not list(tmp_path.glob("*.json"))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = small_spec(loads=(0.3,), seeds=(1,))
        execute(spec, cache=ResultCache(str(tmp_path)))
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{not json")
        rerun = execute(spec, cache=ResultCache(str(tmp_path)))
        assert rerun.stats.executed == 1
        assert json.load(open(entry))  # rewritten with a valid value

    def test_clear(self, tmp_path):
        store = ResultCache(str(tmp_path))
        execute(small_spec(loads=(0.3,), seeds=(1,)), cache=store)
        assert store.clear() == 1
        assert not list(tmp_path.glob("*.json"))


class TestHashing:
    def test_point_key_stable_and_config_sensitive(self):
        config_a = CellConfig(load_index=0.3, seed=1, **SMALL)
        config_b = CellConfig(load_index=0.3, seed=1, **SMALL)
        config_c = CellConfig(load_index=0.3, seed=2, **SMALL)
        assert point_key(run_cell_summary, config_a) == \
            point_key(run_cell_summary, config_b)
        assert point_key(run_cell_summary, config_a) != \
            point_key(run_cell_summary, config_c)

    def test_canonical_shapes(self):
        config = CellConfig(load_index=0.3, seed=1, **SMALL)
        projected = canonical(config)
        assert projected[0].endswith("CellConfig")
        assert projected[1]["seed"] == 1
        assert canonical({"b": 2, "a": (1, 2)}) == {"a": [1, 2], "b": 2}
        assert canonical({1: "x"}) == {"1": "x"}

    def test_canonical_plain_object(self):
        from repro.phy.errors import IndependentSymbolErrors
        first = canonical(IndependentSymbolErrors(0.02))
        second = canonical(IndependentSymbolErrors(0.02))
        third = canonical(IndependentSymbolErrors(0.05))
        assert first == second
        assert first != third


class TestReduction:
    def test_mean_of_summaries_intersects_keys(self):
        merged = mean_of_summaries([{"a": 1.0, "b": 2.0, "extra": 9.0},
                                    {"a": 3.0, "b": 4.0}])
        assert merged == {"a": 2.0, "b": 3.0}
        assert mean_of_summaries([]) == {}

    def test_group_means_orders_and_labels(self):
        points = (Point(fn=len, config=None, label={"x": 1, "seed": 1}),
                  Point(fn=len, config=None, label={"x": 1, "seed": 2}),
                  Point(fn=len, config=None, label={"x": 2, "seed": 1}))
        values = [{"v": 1.0}, {"v": 3.0}, {"v": 5.0}]
        rows = group_means(values, points, by=("x",))
        assert rows == [{"v": 2.0, "x": 1}, {"v": 5.0, "x": 2}]


class TestSeeding:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(1, "load", 0.3) == derive_seed(1, "load", 0.3)
        assert derive_seed(1, "load", 0.3) != derive_seed(1, "load", 0.5)
        assert derive_seed(1, "load", 0.3) != derive_seed(2, "load", 0.3)


class TestTelemetry:
    def test_execute_records(self):
        telemetry.reset()
        execute(small_spec(loads=(0.3,), seeds=(1,)), cache=False)
        assert telemetry.total_points == 1
        assert telemetry.total_executed == 1
        line = telemetry.format()
        assert "1 points" in line and "points/s" in line
        telemetry.reset()
        assert telemetry.records == []


class TestSweepOnEngine:
    def test_sweep_loads_serial_vs_parallel(self):
        from repro.experiments.runner import sweep_loads
        kwargs = dict(loads=(0.3, 0.9), seeds=(1, 2), cache=False,
                      num_data_users=4, num_gps_users=1,
                      cycles=40, warmup_cycles=8)
        assert sweep_loads(jobs=1, **kwargs) == \
            sweep_loads(jobs=2, **kwargs)

    def test_experiment_cli_engine_flags(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.__main__ import main
        assert main(["table1", "--quick", "--jobs", "2",
                     "--no-cache"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_sweep_cli_subcommand(self, capsys):
        from repro.cli import main
        code = main(["sweep", "--loads", "0.3", "--seeds", "1",
                     "--data-users", "4", "--gps-users", "1",
                     "--cycles", "40", "--warmup", "8", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho=0.3" in out and "util=" in out

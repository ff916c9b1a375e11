"""Unit tests for the experiment runner/report machinery."""

import pytest

from repro.experiments.runner import (
    ExperimentResult,
    PAPER_LOADS,
    cycles_for,
    sweep_loads,
)


class TestExperimentResult:
    def make(self):
        return ExperimentResult(
            experiment_id="T", title="Demo table",
            headers=["load", "util"],
            rows=[[0.3, 0.31], [0.9, 0.87]],
            notes="a note")

    def test_format_contains_everything(self):
        text = self.make().format()
        assert "Demo table" in text
        assert "load" in text
        assert "0.31" in text
        assert "a note" in text

    def test_series(self):
        result = self.make()
        assert result.series("load") == [0.3, 0.9]
        assert result.series("util") == [0.31, 0.87]
        with pytest.raises(ValueError):
            result.series("nope")

    def test_csv_roundtrip(self, tmp_path):
        result = self.make()
        csv_text = result.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "load,util"
        assert lines[1] == "0.3,0.31"
        path = tmp_path / "out.csv"
        result.save_csv(str(path))
        assert path.read_text() == csv_text


class TestHelpers:
    def test_cycles_for(self):
        quick = cycles_for(True)
        full = cycles_for(False)
        assert quick[0] < full[0]
        assert quick[1] < quick[0]

    def test_paper_loads(self):
        assert PAPER_LOADS == (0.3, 0.5, 0.8, 0.9, 1.0, 1.1)


class TestSweep:
    def test_sweep_returns_one_point_per_load(self):
        points = sweep_loads(loads=(0.3, 0.9), seeds=(1,), quick=True,
                             num_data_users=4, num_gps_users=1,
                             cycles=40, warmup_cycles=8)
        assert len(points) == 2
        assert points[0]["load"] == 0.3
        assert "utilization" in points[0]
        assert points[1]["utilization"] > points[0]["utilization"]

    def test_sweep_averages_over_seeds(self):
        single = sweep_loads(loads=(0.5,), seeds=(1,), quick=True,
                             num_data_users=4, num_gps_users=1,
                             cycles=40, warmup_cycles=8)
        double = sweep_loads(loads=(0.5,), seeds=(1, 2), quick=True,
                             num_data_users=4, num_gps_users=1,
                             cycles=40, warmup_cycles=8)
        # Different seed sets generally give different averages.
        assert single[0]["utilization"] != pytest.approx(
            double[0]["utilization"], abs=1e-12) \
            or single[0] != double[0]


class TestCsvCli:
    def test_save_csv_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        code = main(["table1", "--quick", "--save-csv",
                     str(tmp_path)])
        assert code == 0
        saved = tmp_path / "table1.csv"
        assert saved.exists()
        assert "parameter,paper,model" in saved.read_text()

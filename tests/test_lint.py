"""maclint: rule detection, scoping, pragmas, baseline, CLI gate."""

import json

import pytest

from repro.lint import (
    check_source,
    fingerprint,
    load_baseline,
    parse_pragmas,
    partition,
    scope_for_path,
    write_baseline,
)
from repro.lint.checker import LintSyntaxError
from repro.lint.cli import main as lint_main
from repro.lint.rules import RULES

CORE_PATH = "src/repro/sim/fixture.py"
PHY_PATH = "src/repro/phy/fixture.py"
ENGINE_PATH = "src/repro/engine/fixture.py"
EXPERIMENTS_PATH = "src/repro/experiments/fixture.py"


def rules_of(report):
    return [finding.rule for finding in report.findings]


# -- DET family ----------------------------------------------------------------------


class TestDetRules:
    def test_det001_module_global_random(self):
        report = check_source(
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n", CORE_PATH)
        assert rules_of(report) == ["DET001"]
        assert "sim.rng" in report.findings[0].message

    def test_det001_from_import(self):
        report = check_source(
            "from random import randint\n"
            "def pick():\n"
            "    return randint(0, 5)\n", CORE_PATH)
        assert rules_of(report) == ["DET001"]

    def test_det001_aliased_module(self):
        report = check_source(
            "import random as rnd\n"
            "x = rnd.choice([1, 2])\n", CORE_PATH)
        assert rules_of(report) == ["DET001"]

    def test_det002_wall_clock(self):
        report = check_source(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n", CORE_PATH)
        assert rules_of(report) == ["DET002"]

    def test_det002_datetime_now(self):
        report = check_source(
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return datetime.now()\n", CORE_PATH)
        assert rules_of(report) == ["DET002"]

    def test_det003_direct_construction(self):
        report = check_source(
            "import random\n"
            "rng = random.Random(7)\n", CORE_PATH)
        assert rules_of(report) == ["DET003"]
        assert "RandomStreams" in report.findings[0].message

    def test_det004_set_iteration(self):
        report = check_source(
            "def schedule(uids):\n"
            "    for uid in set(uids):\n"
            "        grant(uid)\n", CORE_PATH)
        assert rules_of(report) == ["DET004"]

    def test_det004_set_literal_and_comprehension(self):
        report = check_source(
            "def build():\n"
            "    return [s for s in {3, 1, 2}]\n", CORE_PATH)
        assert rules_of(report) == ["DET004"]

    def test_det_negative_injected_rng(self):
        report = check_source(
            "def corrupt(codeword, rng):\n"
            "    return [s for s in codeword if rng.random() < 0.5]\n",
            CORE_PATH)
        assert rules_of(report) == []

    def test_det_negative_sorted_set(self):
        report = check_source(
            "def schedule(uids):\n"
            "    for uid in sorted(set(uids)):\n"
            "        grant(uid)\n", CORE_PATH)
        assert rules_of(report) == []

    def test_det_out_of_scope_in_experiments(self):
        # Experiment drivers may construct documented seeded RNGs.
        report = check_source(
            "import random\n"
            "rng = random.Random(1)\n", EXPERIMENTS_PATH)
        assert rules_of(report) == []

    def test_det_exempt_in_rng_module(self):
        report = check_source(
            "import random\n"
            "stream = random.Random(42)\n", "src/repro/sim/rng.py")
        assert rules_of(report) == []


# -- PAR family ----------------------------------------------------------------------


class TestParRules:
    def test_par001_global_statement(self):
        report = check_source(
            "_cache = None\n"
            "def set_cache(value):\n"
            "    global _cache\n"
            "    _cache = value\n", ENGINE_PATH)
        assert rules_of(report) == ["PAR001"]

    def test_par002_module_mutable_state(self):
        report = check_source(
            "pending = []\n", ENGINE_PATH)
        assert rules_of(report) == ["PAR002"]

    def test_par002_negative_constant_and_class_attr(self):
        report = check_source(
            "LOADS = (0.3, 0.8)\n"
            "PAPER_ROWS = [1, 2]\n"   # UPPER_CASE convention: constant
            "class Acc:\n"
            "    samples = []\n",     # class attribute, not module state
            ENGINE_PATH)
        assert rules_of(report) == []

    def test_par003_lambda_point(self):
        report = check_source(
            "def build(configs):\n"
            "    return [Point(fn=lambda c: c, config=c)\n"
            "            for c in configs]\n", EXPERIMENTS_PATH)
        assert rules_of(report) == ["PAR003"]

    def test_par003_nested_function_point(self):
        report = check_source(
            "def build(config):\n"
            "    def task(c):\n"
            "        return c\n"
            "    return Point(fn=task, config=config)\n",
            EXPERIMENTS_PATH)
        assert rules_of(report) == ["PAR003"]

    def test_par003_negative_module_level_fn(self):
        report = check_source(
            "def task(c):\n"
            "    return c\n"
            "def build(config):\n"
            "    return Point(fn=task, config=config)\n",
            EXPERIMENTS_PATH)
        assert rules_of(report) == []


# -- PROTO family --------------------------------------------------------------------


class TestProtoRules:
    def test_proto001_symbol_rate(self):
        report = check_source(
            "rate = 2400.0\n", ENGINE_PATH)
        assert rules_of(report) == ["PROTO001"]
        assert "REVERSE_SYMBOL_RATE" in report.findings[0].message

    def test_proto001_reverse_shift(self):
        report = check_source("delta = 0.30125\n", EXPERIMENTS_PATH)
        assert rules_of(report) == ["PROTO001"]
        assert "REVERSE_SHIFT" in report.findings[0].message

    def test_proto001_core_only_values(self):
        # 37 and 4.0 are ambiguous: flagged in the protocol core ...
        report = check_source("slots = 37\ndeadline = 4.0\n", CORE_PATH)
        assert rules_of(report) == ["PROTO001", "PROTO001"]
        # ... but not in outer layers, where small numbers are common.
        report = check_source("slots = 37\ndeadline = 4.0\n",
                              ENGINE_PATH)
        assert rules_of(report) == []

    def test_proto001_int_float_equivalence(self):
        report = check_source("a = 3200\nb = 3200.0\n", ENGINE_PATH)
        assert rules_of(report) == ["PROTO001", "PROTO001"]

    def test_proto001_exempt_in_timing(self):
        report = check_source(
            "FORWARD_SYMBOL_RATE = 3200.0\n",
            "src/repro/phy/timing.py")
        assert rules_of(report) == []

    def test_proto001_negative_unrelated_number(self):
        report = check_source("x = 4\ny = 0.5\nz = 2401\n", CORE_PATH)
        assert rules_of(report) == []


# -- HOT family ----------------------------------------------------------------------


class TestHotRules:
    def test_hot001_print(self):
        report = check_source(
            "def on_symbol(s):\n"
            "    print('sym', s)\n", PHY_PATH)
        assert rules_of(report) == ["HOT001"]

    def test_hot001_out_of_scope_in_cli(self):
        report = check_source(
            "def render():\n"
            "    print('table')\n", "src/repro/cli.py")
        assert rules_of(report) == []

    def test_hot002_open_in_loop(self):
        report = check_source(
            "def dump(events):\n"
            "    for event in events:\n"
            "        with open('log', 'a') as f:\n"
            "            f.write(str(event))\n", CORE_PATH)
        assert rules_of(report) == ["HOT002"]

    def test_hot002_negative_open_outside_loop(self):
        report = check_source(
            "def dump(events):\n"
            "    with open('log', 'w') as f:\n"
            "        for event in events:\n"
            "            f.write(str(event))\n", CORE_PATH)
        assert rules_of(report) == []


# -- pragmas -------------------------------------------------------------------------


class TestPragmas:
    def test_line_pragma_suppresses(self):
        report = check_source(
            "import random\n"
            "rng = random.Random(7)  # maclint: disable=DET003\n",
            CORE_PATH)
        assert rules_of(report) == []
        assert [f.rule for f in report.suppressed] == ["DET003"]

    def test_family_pragma(self):
        report = check_source(
            "import random\n"
            "x = random.random()  # maclint: disable=DET\n", CORE_PATH)
        assert rules_of(report) == []

    def test_file_pragma(self):
        report = check_source(
            "# maclint: disable-file=PROTO001\n"
            "a = 3200\n"
            "b = 2400\n", CORE_PATH)
        assert rules_of(report) == []
        assert len(report.suppressed) == 2

    def test_pragma_only_covers_its_line(self):
        report = check_source(
            "import random\n"
            "a = random.random()  # maclint: disable=DET001\n"
            "b = random.random()\n", CORE_PATH)
        assert rules_of(report) == ["DET001"]
        assert report.findings[0].line == 3

    def test_unknown_rule_reported(self):
        pragmas = parse_pragmas("x = 1  # maclint: disable=NOPE123\n")
        assert pragmas.errors and "NOPE123" in pragmas.errors[0]

    def test_pragma_inside_string_ignored(self):
        report = check_source(
            "doc = '# maclint: disable=DET001'\n"
            "import random\n"
            "x = random.random()\n", CORE_PATH)
        assert rules_of(report) == ["DET001"]


# -- baseline ------------------------------------------------------------------------


class TestBaseline:
    SOURCE = ("import random\n"
              "rng = random.Random(7)\n")

    def test_roundtrip_and_partition(self, tmp_path):
        report = check_source(self.SOURCE, CORE_PATH)
        baseline_file = tmp_path / "baseline.json"
        assert write_baseline(str(baseline_file), report.findings) == 1
        counts = load_baseline(str(baseline_file))
        new, grandfathered = partition(report.findings, counts)
        assert new == []
        assert len(grandfathered) == 1

    def test_new_finding_not_masked(self, tmp_path):
        report = check_source(self.SOURCE, CORE_PATH)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(str(baseline_file), report.findings)
        grown = check_source(
            self.SOURCE + "other = random.Random(9)\n", CORE_PATH)
        new, grandfathered = partition(
            grown.findings, load_baseline(str(baseline_file)))
        assert len(grandfathered) == 1
        assert len(new) == 1
        assert "Random(9)" in new[0].text

    def test_fingerprint_survives_line_drift(self):
        before = check_source(self.SOURCE, CORE_PATH).findings[0]
        after = check_source("\n\n" + self.SOURCE, CORE_PATH).findings[0]
        assert before.line != after.line
        assert fingerprint(before) == fingerprint(after)

    def test_duplicate_occurrences_matched_as_multiset(self, tmp_path):
        source = ("import random\n"
                  "a = random.random()\n"
                  "b = random.random()\n")
        # both lines differ textually; identical-text duplicates:
        dup = ("import random\n"
               "x = random.random()\n")
        report = check_source(dup, CORE_PATH)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(str(baseline_file), report.findings)
        grown = check_source(dup + "x = random.random()\n", CORE_PATH)
        new, grandfathered = partition(
            grown.findings, load_baseline(str(baseline_file)))
        assert len(grandfathered) == 1 and len(new) == 1
        del source


# -- scoping and errors --------------------------------------------------------------


class TestScoping:
    def test_scope_for_core_and_outer_packages(self):
        core = scope_for_path("src/repro/protocols/prma.py")
        assert core.det and core.hot and core.proto_core
        outer = scope_for_path("src/repro/engine/spec.py")
        assert not outer.det and not outer.hot
        assert outer.par and outer.proto and not outer.proto_core

    def test_hot_extra_modules_outside_core(self):
        # Designated hot-path modules in otherwise non-core packages
        # get the HOT family (and only the HOT family beyond the
        # outer-package default).
        registry = scope_for_path("src/repro/obs/registry.py")
        assert registry.hot and not registry.det
        stats = scope_for_path("src/repro/metrics/stats.py")
        assert stats.hot
        # The service-mode cycle loop is on the paced critical path.
        service = scope_for_path("src/repro/serve/service.py")
        assert service.hot and not service.det
        # Siblings in the same packages stay un-hot.
        render = scope_for_path("src/repro/obs/render.py")
        assert not render.hot
        profiler = scope_for_path("src/repro/obs/profiler.py")
        assert not profiler.hot
        fairness = scope_for_path("src/repro/metrics/fairness.py")
        assert not fairness.hot
        control = scope_for_path("src/repro/serve/control.py")
        assert not control.hot

    def test_new_kernel_modules_are_core_hot(self):
        # The fast-path modules added by the kernel refactor fall under
        # the core packages and pick up the full core treatment.
        intervals = scope_for_path("src/repro/phy/intervals.py")
        assert intervals.hot and intervals.det
        kernel = scope_for_path("src/repro/sim/core.py")
        assert kernel.hot and kernel.det

    def test_print_flagged_in_hot_extra_module(self):
        report = check_source("def sample(value):\n"
                              "    print(value)\n",
                              "src/repro/obs/registry.py")
        assert [finding.rule for finding in report.findings] \
            == ["HOT001"]

    def test_lint_package_exempt(self):
        scope = scope_for_path("src/repro/lint/rules.py")
        assert not (scope.det or scope.par or scope.proto or scope.hot)

    def test_unscoped_path_gets_full_treatment(self):
        scope = scope_for_path("fixture.py")
        assert scope.det and scope.par and scope.proto and scope.hot

    def test_syntax_error_raises(self):
        with pytest.raises(LintSyntaxError):
            check_source("def broken(:\n", CORE_PATH)


# -- CLI end-to-end ------------------------------------------------------------------


class TestCli:
    def test_repo_passes_against_checked_in_baseline(self, capsys):
        exit_code = lint_main(["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["schema"] == "repro/maclint@2"
        assert payload["ok"] is True
        assert payload["new"] == []
        assert payload["checked_files"] > 50
        # the three grandfathered parent-process singletons
        assert [f["rule"] for f in payload["baselined"]] \
            == ["PAR001", "PAR001", "PAR001"]

    @pytest.mark.parametrize("family,snippet", [
        ("DET", "import random\nx = random.Random(3)\n"),
        ("PAR", "shared = {}\n"),
        ("PROTO", "rate = 3200.0\n"),
        ("HOT", "def f(events):\n"
                "    for e in events:\n"
                "        print(e)\n"),
    ])
    def test_fixture_violation_fails_gate(self, tmp_path, capsys,
                                          family, snippet):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(snippet)
        exit_code = lint_main([str(fixture), "--no-baseline",
                               "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        families = {RULES[f["rule"]].family for f in payload["new"]}
        assert family in families

    def test_write_baseline_then_pass(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text("import random\nx = random.Random(3)\n")
        baseline = tmp_path / "base.json"
        assert lint_main([str(fixture), "--baseline",
                          str(baseline), "--write-baseline"]) == 0
        capsys.readouterr()
        assert lint_main([str(fixture), "--baseline",
                          str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_pragma_error_exits_2(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text("x = 1  # maclint: disable=BOGUS9\n")
        assert lint_main([str(fixture), "--no-baseline"]) == 2
        assert "BOGUS9" in capsys.readouterr().err

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text("def broken(:\n")
        assert lint_main([str(fixture), "--no-baseline"]) == 2

    def test_missing_path_exits_2(self, capsys):
        assert lint_main(["definitely/not/here.py"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        assert set(catalogue) == set(RULES)
        for entry in catalogue.values():
            assert entry["family"] in ("DET", "PAR", "PROTO", "HOT",
                                       "FLOW")

    def test_via_repro_cli(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out and "ok" in out

"""maclint v2: whole-program taint, reachability scoping, SARIF, CLI.

Every taint fixture here is a two-module flow that the v1 per-module
pass provably misses (asserted in each test), so the suite demonstrates
the interprocedural value of the project index rather than re-testing
the syntactic rules.
"""

import json
import subprocess

from repro.lint import check_project, check_source, sarif_report
from repro.lint.checker import Finding
from repro.lint.cli import changed_files, main as lint_main
from repro.lint.project import Project
from repro.lint.rules import RULES


def rules_of(report):
    return [finding.rule for finding in report.findings]


def project_of(*sources):
    return Project.build(list(sources))


# -- fixtures: one seeded flow per taint kind, each invisible to v1 ------------------

# rng: the draw hides behind a helper in a module where DET001 does not
# apply; the value then crosses into det-scoped sim code.
RNG_HELPER = (
    "src/repro/experiments/jitter.py",
    "import random\n"
    "\n"
    "\n"
    "def draw_jitter():\n"
    "    return random.random()\n",
)
RNG_CALLER = (
    "src/repro/sim/backoff.py",
    "from repro.experiments.jitter import draw_jitter\n"
    "\n"
    "\n"
    "def next_delay(base):\n"
    "    return base + draw_jitter()\n",
)

# clock: the wall-clock read lives in serve (allowed there), but the
# value lands in a journal record two calls later.
CLOCK_SOURCE = (
    "src/repro/serve/pacing.py",
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.monotonic()\n",
)
CLOCK_SINK = (
    "src/repro/serve/recorder.py",
    "from repro.serve.pacing import stamp\n"
    "\n"
    "\n"
    "def record(journal, cycle):\n"
    "    started = stamp()\n"
    "    journal.append_event({\"cycle\": cycle, \"t\": started})\n",
)

# clock, direct: the same read reaches the durable-log primitive's
# record writer with no journal schema in between.
APPEND_LOG = (
    "src/repro/engine/checkpoint.py",
    "class AppendLog:\n"
    "    def __init__(self, path):\n"
    "        self.path = path\n"
    "\n"
    "    def append_record(self, record):\n"
    "        return record\n",
)
CLOCK_LOG_SINK = (
    "src/repro/serve/stamps.py",
    "from repro.engine.checkpoint import AppendLog\n"
    "from repro.serve.pacing import stamp\n"
    "\n"
    "\n"
    "def record(path, cycle):\n"
    "    log = AppendLog(path)\n"
    "    log.append_record({\"cycle\": cycle, \"t\": stamp()})\n",
)

# order: dict-iteration order computed behind a helper feeds an
# envelope constructor in another module.
ORDER_HELPER = (
    "src/repro/shard/batching.py",
    "from typing import Dict, List\n"
    "\n"
    "\n"
    "def arrival_order(pending: Dict[str, int]) -> List[str]:\n"
    "    order = []\n"
    "    for name in pending:\n"
    "        order.append(name)\n"
    "    return order\n",
)
ORDER_ENVELOPES = (
    "src/repro/shard/envelopes.py",
    "def message_envelope(payload):\n"
    "    return {\"payload\": payload}\n",
)
ORDER_SINK = (
    "src/repro/shard/emitter.py",
    "from repro.shard.batching import arrival_order\n"
    "from repro.shard.envelopes import message_envelope\n"
    "\n"
    "\n"
    "def emit(pending):\n"
    "    return message_envelope(arrival_order(pending))\n",
)


class TestTaintKinds:
    def test_v1_misses_every_fixture(self):
        for path, source in (RNG_HELPER, RNG_CALLER, CLOCK_SOURCE,
                             CLOCK_SINK, ORDER_HELPER, ORDER_SINK):
            assert rules_of(check_source(source, path)) == [], path

    def test_rng_draw_behind_helper(self):
        report = check_project([RNG_HELPER, RNG_CALLER])
        assert rules_of(report) == ["FLOW101"]
        finding = report.findings[0]
        assert finding.path == RNG_CALLER[0]
        assert finding.line == 5  # the call site entering the core
        assert "random.random" in finding.message
        assert "jitter.py:5" in finding.message

    def test_clock_reaching_journal(self):
        report = check_project([CLOCK_SOURCE, CLOCK_SINK])
        assert rules_of(report) == ["FLOW102"]
        finding = report.findings[0]
        assert finding.path == CLOCK_SINK[0]
        assert finding.line == 6  # the append_event sink line
        assert "time.monotonic" in finding.message

    def test_clock_reaching_append_log(self):
        assert rules_of(check_source(CLOCK_LOG_SINK[1],
                                     CLOCK_LOG_SINK[0])) == []
        report = check_project([CLOCK_SOURCE, APPEND_LOG, CLOCK_LOG_SINK])
        assert rules_of(report) == ["FLOW102"]
        finding = report.findings[0]
        assert finding.path == CLOCK_LOG_SINK[0]
        assert finding.line == 7  # the append_record sink line
        assert "AppendLog.append_record" in finding.message

    def test_clock_without_sink_is_clean(self):
        report = check_project([CLOCK_SOURCE])
        assert rules_of(report) == []

    def test_dict_order_reaching_envelope(self):
        report = check_project(
            [ORDER_HELPER, ORDER_ENVELOPES, ORDER_SINK])
        assert rules_of(report) == ["FLOW103"]
        finding = report.findings[0]
        assert finding.path == ORDER_SINK[0]
        assert finding.line == 6
        assert "batching.py" in finding.message

    def test_sorted_sanitizes_order(self):
        sink = (ORDER_SINK[0], ORDER_SINK[1].replace(
            "arrival_order(pending)",
            "sorted(arrival_order(pending))"))
        report = check_project([ORDER_HELPER, ORDER_ENVELOPES, sink])
        assert rules_of(report) == []

    def test_no_flow_falls_back_to_v1(self):
        report = check_project([CLOCK_SOURCE, CLOCK_SINK], flow=False)
        assert rules_of(report) == []


class TestPragmas:
    def test_sink_line_pragma_suppresses_flow(self):
        path, source = CLOCK_SINK
        source = source.replace(
            "journal.append_event({\"cycle\": cycle, \"t\": started})",
            "journal.append_event({\"cycle\": cycle, \"t\": started})"
            "  # maclint: disable=FLOW102")
        report = check_project([CLOCK_SOURCE, (path, source)])
        assert rules_of(report) == []
        assert [f.rule for f in report.suppressed] == ["FLOW102"]

    def test_source_line_pragma_does_not_suppress(self):
        path, source = CLOCK_SOURCE
        source = source.replace(
            "return time.monotonic()",
            "return time.monotonic()  # maclint: disable=FLOW102")
        report = check_project([(path, source), CLOCK_SINK])
        # the pragma sits where the value is born, not where it sinks;
        # the determinism debt lives at the sink, so it still fires.
        assert rules_of(report) == ["FLOW102"]


class TestReachability:
    def test_hot_via_call_graph(self):
        # obs/collector.py is in no curated HOT list; v2 flags the
        # print because the collector is reachable from Simulator.step.
        collector = (
            "src/repro/obs/collector.py",
            "def note(value):\n"
            "    print(value)\n",
        )
        core = (
            "src/repro/sim/core.py",
            "from repro.obs.collector import note\n"
            "\n"
            "\n"
            "class Simulator:\n"
            "    def step(self):\n"
            "        note(1)\n",
        )
        assert rules_of(check_source(*reversed(collector))) == []
        report = check_project([collector, core])
        assert rules_of(report) == ["HOT001"]
        assert report.findings[0].path == collector[0]

    def test_hot_via_partial_callback(self):
        # The kernel queues callbacks as functools.partial objects; the
        # partial's function reference keeps the callback on the
        # event-loop path, so its print and per-loop open are flagged.
        def beacon(arm):
            return (
                "src/repro/obs/beacon.py",
                "import functools\n"
                "\n"
                "\n"
                "class Beacon:\n"
                "    def __init__(self, sim, channel):\n"
                "        self.sim = sim\n"
                "        channel.add_listener(self._on_delivery)\n"
                "\n"
                "    def _on_delivery(self, transmission, ok):\n"
                f"        {arm}\n"
                "\n"
                "    def _fire(self, paths):\n"
                "        print(paths)\n"
                "        for path in paths:\n"
                "            open(path)\n",
            )

        armed = beacon("self.sim.call_at(transmission.end, "
                       "functools.partial(self._fire, transmission.paths))")
        assert rules_of(check_source(*reversed(armed))) == []
        report = check_project([armed])
        assert rules_of(report) == ["HOT001", "HOT002"]
        assert [finding.line for finding in report.findings] == [13, 15]
        assert rules_of(check_project([beacon("pass")])) == []

    def test_unreachable_print_is_clean(self):
        collector = (
            "src/repro/obs/collector.py",
            "def note(value):\n"
            "    print(value)\n",
        )
        report = check_project([collector])
        assert rules_of(report) == []

    def test_par004_pool_reachable_mutation(self):
        fixture = (
            "src/repro/engine/warm_cache.py",
            "from repro.engine.spec import Point\n"
            "\n"
            "CACHE = {}\n"
            "\n"
            "\n"
            "def task(config):\n"
            "    CACHE[config[\"seed\"]] = config\n"
            "    return len(CACHE)\n"
            "\n"
            "\n"
            "def build():\n"
            "    return Point(name=\"p\", config={}, fn=task)\n",
        )
        assert rules_of(check_source(*reversed(fixture))) == []
        report = check_project([fixture])
        assert rules_of(report) == ["PAR004"]
        assert report.findings[0].line == 7
        assert "CACHE" in report.findings[0].message

    def test_par004_shard_worker_is_a_root(self):
        # No Point references the worker; it is a root by name, and a
        # helper it calls is in scope through the call graph.
        fixture = (
            "src/repro/shard/worker.py",
            "SEEN = []\n"
            "\n"
            "\n"
            "def note(epoch):\n"
            "    SEEN.append(epoch)\n"
            "\n"
            "\n"
            "def shard_worker(conn, inherited, city, shard_ids):\n"
            "    note(conn.recv())\n",
        )
        assert rules_of(check_source(*reversed(fixture))) == []
        report = check_project([fixture])
        assert rules_of(report) == ["PAR004"]
        assert report.findings[0].line == 5
        assert "SEEN" in report.findings[0].message
        assert "shard worker" in report.findings[0].message

    def test_par004_engine_point_runner_is_a_root(self):
        # Engine workers run every point through the handler that
        # point_runner builds; a helper it calls is in scope.
        fixture = (
            "src/repro/engine/executors.py",
            "ATTEMPTS = []\n"
            "\n"
            "\n"
            "def note(attempt):\n"
            "    ATTEMPTS.append(attempt)\n"
            "\n"
            "\n"
            "def point_runner():\n"
            "    def run_point(request):\n"
            "        fn, config, attempt = request\n"
            "        note(attempt)\n"
            "        return fn(config)\n"
            "\n"
            "    return run_point\n",
        )
        assert rules_of(check_source(*reversed(fixture))) == []
        report = check_project([fixture])
        assert rules_of(report) == ["PAR004"]
        assert report.findings[0].line == 5
        assert "ATTEMPTS" in report.findings[0].message

    def test_par004_follows_super_calls(self):
        # ShardSim.* is a root; the mutation sits in the base class
        # constructor, which only super().__init__() reaches.
        base = (
            "src/repro/network/multicell.py",
            "BUILT = []\n"
            "\n"
            "\n"
            "class MultiCellNetwork:\n"
            "    def __init__(self, config, shard_id=0):\n"
            "        BUILT.append(shard_id)\n",
        )
        shard = (
            "src/repro/shard/shard.py",
            "from repro.network.multicell import MultiCellNetwork\n"
            "\n"
            "\n"
            "class ShardSim(MultiCellNetwork):\n"
            "    def __init__(self, city, shard_id):\n"
            "        super().__init__(city, shard_id)\n",
        )
        report = check_project([base, shard])
        assert rules_of(report) == ["PAR004"]
        assert report.findings[0].path == base[0]
        assert report.findings[0].line == 6
        assert "BUILT" in report.findings[0].message

    def test_par004_skips_unreachable_mutation(self):
        fixture = (
            "src/repro/engine/warm_cache.py",
            "CACHE = {}\n"
            "\n"
            "\n"
            "def warm(config):\n"
            "    CACHE[config[\"seed\"]] = config\n",
        )
        report = check_project([fixture])
        assert rules_of(report) == []


class TestProjectIndex:
    def test_call_graph_resolves_cross_module(self):
        project = project_of(RNG_HELPER, RNG_CALLER)
        caller = "repro.sim.backoff.next_delay"
        callee = "repro.experiments.jitter.draw_jitter"
        assert caller in project.functions
        edges = {target for site in project.calls.get(caller, ())
                 for target in site.targets}
        assert callee in edges

    def test_reachability_closure(self):
        project = project_of(RNG_HELPER, RNG_CALLER)
        reached = project.reachable_from(
            ["repro.sim.backoff.next_delay"])
        assert "repro.experiments.jitter.draw_jitter" in reached

    def test_syntax_error_file_is_skipped(self):
        report = check_project(
            [("src/repro/serve/broken.py", "def broken(:\n"),
             CLOCK_SOURCE])
        assert any("syntax error" in error for error in report.errors)


# -- SARIF ---------------------------------------------------------------------------


def _finding(rule="FLOW102", path="src/repro/serve/recorder.py",
             line=6):
    return Finding(rule=rule, path=path, line=line, col=4,
                   message=RULES[rule].summary, text="journal.append")


class TestSarif:
    def test_document_shape(self):
        document = sarif_report([_finding()],
                                [_finding(rule="PAR001", line=9)])
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        run = document["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "maclint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        results = run["results"]
        assert len(results) == 2
        for result in results:
            assert results[result["ruleIndex"]] is not None
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uriBaseId"] \
                == "REPOROOT"
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1
            assert result["partialFingerprints"]["maclint/v1"]
        assert json.loads(json.dumps(document)) == document

    def test_baselined_results_are_suppressed(self):
        document = sarif_report([_finding()],
                                [_finding(rule="PAR001", line=9)])
        by_rule = {result["ruleId"]: result
                   for result in document["runs"][0]["results"]}
        assert "suppressions" not in by_rule["FLOW102"]
        assert by_rule["PAR001"]["suppressions"] \
            == [{"kind": "external"}]

    def test_rule_metadata_complete(self):
        document = sarif_report([_finding()])
        rule = document["runs"][0]["tool"]["driver"]["rules"][0]
        assert rule["shortDescription"]["text"]
        assert rule["fullDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] == "error"


# -- CLI: --sarif / --changed / ratchet ----------------------------------------------


class TestCliV2:
    def test_sarif_file_written(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text("import random\nx = random.Random(3)\n")
        out = tmp_path / "report.sarif"
        exit_code = lint_main([str(fixture), "--no-baseline",
                               "--sarif", str(out)])
        capsys.readouterr()
        assert exit_code == 1
        document = json.loads(out.read_text())
        assert document["version"] == "2.1.0"
        assert [result["ruleId"]
                for result in document["runs"][0]["results"]] \
            == ["DET003"]

    def test_changed_files_in_git_repo(self, tmp_path):
        def git(*argv):
            subprocess.run(
                ["git", "-c", "user.email=t@t", "-c", "user.name=t",
                 *argv],
                cwd=tmp_path, check=True, capture_output=True)

        git("init", "-q")
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        (tmp_path / "a.py").write_text("x = 2\n")
        (tmp_path / "b.py").write_text("y = 1\n")
        changed = changed_files(tmp_path)
        assert [path.name for path in changed] == ["a.py", "b.py"]

    def test_changed_files_outside_git(self, tmp_path):
        assert changed_files(tmp_path / "not-a-repo") is None

    def test_changed_conflicts_with_paths(self, tmp_path, capsys):
        assert lint_main(["--changed", str(tmp_path)]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_ratchet_requires_full_tree(self, tmp_path, capsys):
        assert lint_main(["--ratchet", str(tmp_path)]) == 2
        assert "full-tree" in capsys.readouterr().err

    def test_ratchet_fails_on_stale_baseline(self, tmp_path, capsys):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({
            "schema": "repro/maclint-baseline@1",
            "findings": [{"fingerprint": "0" * 16,
                          "rule": "DET001",
                          "path": "src/repro/gone.py",
                          "line": 1,
                          "text": "x = random.random()"}],
        }))
        exit_code = lint_main(["--ratchet", "--no-flow",
                               "--baseline", str(stale)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "stale" in captured.err

    def test_ratchet_passes_on_exact_baseline(self, capsys):
        assert lint_main(["--ratchet", "--no-flow"]) == 0
        capsys.readouterr()

    def test_write_baseline_refuses_growth(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text("import random\nx = random.Random(3)\n")
        baseline = tmp_path / "base.json"
        assert lint_main([str(fixture), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        fixture.write_text("import random\n"
                           "x = random.Random(3)\n"
                           "y = random.Random(4)\n")
        capsys.readouterr()
        assert lint_main([str(fixture), "--baseline", str(baseline),
                          "--write-baseline"]) == 1
        assert "refusing to grow" in capsys.readouterr().err
        assert lint_main([str(fixture), "--baseline", str(baseline),
                          "--write-baseline",
                          "--allow-baseline-growth"]) == 0

    def test_full_tree_is_clean_with_flow(self, capsys):
        exit_code = lint_main(["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["schema"] == "repro/maclint@2"
        assert payload["ok"] is True
        assert payload["new"] == []
        assert payload["stale_baseline"] == 0
        # the whole-program pass adds no debt beyond the three
        # grandfathered PAR001 singletons.
        assert [f["rule"] for f in payload["baselined"]] \
            == ["PAR001", "PAR001", "PAR001"]

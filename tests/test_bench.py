"""Tests for the performance-regression observatory (``repro.bench``).

Covers the workload registry, the timing harness (statistics + telemetry
snapshot), the ``BENCH_*.json`` schema round-trip, the dual-gate
comparison engine (strict counters, advisory wall times), the trend
report, and the ``repro bench`` CLI subcommands.
"""

import copy
import json

import pytest

from repro import bench
from repro import telemetry as tm
from repro.cli import main

#: two cheap workloads exercising both a micro (autodiff) and a macro
#: (pipeline) path; the macro one emits graph.* counters.
TEST_WORKLOADS = ["autodiff.gather_rows", "graph.build"]

FAST = bench.HarnessConfig(warmup=0, min_repeats=2, max_repeats=2,
                           budget_seconds=0.0)


@pytest.fixture(autouse=True)
def clean_registry():
    tm.disable()
    tm.reset()
    yield
    tm.disable()
    tm.reset()


@pytest.fixture(scope="module")
def quick_report():
    """One shared suite run (module-scoped: setup builds datasets)."""
    return bench.run_suite("quick", names=TEST_WORKLOADS, config=FAST)


class TestRegistry:
    def test_expected_workloads_registered(self):
        expected = {"autodiff.gather_rows", "autodiff.segment_sum",
                    "autodiff.attention_layer.fused", "graph.build",
                    "ppr.power", "ppr.push", "train.epoch", "eval.rank"}
        assert expected <= set(bench.WORKLOADS)

    def test_every_workload_has_params_for_every_suite(self):
        for workload in bench.WORKLOADS.values():
            for suite in bench.SUITES:
                assert suite in workload.params, (
                    f"{workload.name} lacks {suite} params")

    def test_unknown_workload_name_rejected(self):
        with pytest.raises(KeyError, match="unknown workloads"):
            bench.get_workloads(["no.such.workload"])

    def test_get_workloads_preserves_request_order(self):
        names = ["graph.build", "autodiff.gather_rows"]
        assert [w.name for w in bench.get_workloads(names)] == names


class TestHarness:
    def test_report_toplevel_schema(self, quick_report):
        assert quick_report["schema"] == bench.SCHEMA
        assert quick_report["suite"] == "quick"
        assert quick_report["created_unix"] > 0
        assert isinstance(quick_report["git_sha"], str)
        machine = quick_report["machine"]
        for key in ("platform", "python", "numpy", "cpu_count"):
            assert key in machine
        assert quick_report["manifest"]["record"] == "manifest"
        assert quick_report["manifest"]["run"] == "bench:quick"

    def test_workload_entries_carry_statistics(self, quick_report):
        assert set(quick_report["workloads"]) == set(TEST_WORKLOADS)
        for entry in quick_report["workloads"].values():
            assert entry["repeats"] == 2 == len(entry["seconds"])
            assert entry["min_seconds"] <= entry["median_seconds"] \
                <= entry["max_seconds"]
            assert entry["iqr_seconds"] >= 0.0
            assert entry["params"]

    def test_instrumented_snapshot_holds_counters_and_bench_span(
            self, quick_report):
        gather = quick_report["workloads"]["autodiff.gather_rows"]
        counters = gather["telemetry"]["counters"]
        assert counters["autodiff.gather_rows"]["total"] == 1
        assert counters["autodiff.gather_rows.rows"]["total"] == 20_000
        assert "bench.autodiff.gather_rows" in gather["telemetry"]["spans"]

        graph = quick_report["workloads"]["graph.build"]
        graph_counters = graph["telemetry"]["counters"]
        assert graph_counters["graph.builds"]["total"] == 1
        assert graph_counters["graph.edges"]["total"] > 0

    def test_harness_leaves_global_registry_clean(self, quick_report):
        assert tm.get_registry().is_empty()
        assert not tm.is_enabled()

    def test_counters_are_run_invariant(self, quick_report):
        """The strict-gate precondition: rerunning changes no counter."""
        again = bench.run_suite("quick", names=["graph.build"], config=FAST)
        base = quick_report["workloads"]["graph.build"]["telemetry"]["counters"]
        cand = again["workloads"]["graph.build"]["telemetry"]["counters"]
        assert {n: r["total"] for n, r in base.items()} \
            == {n: r["total"] for n, r in cand.items()}

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            bench.run_suite("huge")


class TestArtifact:
    def test_schema_round_trip(self, quick_report, tmp_path):
        path = str(tmp_path / "BENCH_quick.json")
        bench.save_report(quick_report, path)
        loaded = bench.load_report(path)
        assert loaded == json.loads(json.dumps(quick_report))

    def test_validate_rejects_wrong_schema(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["schema"] = "somebody.else/9"
        with pytest.raises(ValueError, match="schema"):
            bench.validate_report(bad)

    def test_validate_rejects_missing_workload_fields(self, quick_report):
        bad = copy.deepcopy(quick_report)
        del bad["workloads"]["graph.build"]["median_seconds"]
        del bad["workloads"]["graph.build"]["telemetry"]["counters"]
        with pytest.raises(ValueError) as excinfo:
            bench.validate_report(bad)
        message = str(excinfo.value)
        assert "median_seconds" in message and "telemetry" in message

    def test_validate_rejects_missing_manifest(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["manifest"] = {}
        with pytest.raises(ValueError, match="manifest"):
            bench.validate_report(bad)


class TestCompare:
    def test_self_compare_passes_with_zero_findings(self, quick_report):
        result = bench.compare_reports(quick_report, quick_report)
        assert result.passed
        assert result.findings == []
        assert result.workloads_compared == len(TEST_WORKLOADS)
        assert result.counters_compared > 0
        assert "PASS" in result.render()

    def test_doubled_counter_fails_the_gate(self, quick_report):
        regressed = copy.deepcopy(quick_report)
        counters = regressed["workloads"]["graph.build"]["telemetry"]["counters"]
        counters["graph.edges"]["total"] *= 2
        result = bench.compare_reports(quick_report, regressed)
        assert not result.passed
        [failure] = result.failures
        assert failure.gate == "counter"
        assert failure.name == "graph.edges"
        assert failure.workload == "graph.build"

    def test_halved_counter_warns_but_passes(self, quick_report):
        improved = copy.deepcopy(quick_report)
        counters = improved["workloads"]["graph.build"]["telemetry"]["counters"]
        counters["graph.edges"]["total"] /= 2
        result = bench.compare_reports(quick_report, improved)
        assert result.passed
        assert any(w.name == "graph.edges" and "improvement" in w.message
                   for w in result.warnings)

    def test_small_counter_jitter_within_tolerance_passes(self, quick_report):
        jittered = copy.deepcopy(quick_report)
        counters = jittered["workloads"]["graph.build"]["telemetry"]["counters"]
        counters["graph.edges"]["total"] *= 1.05
        result = bench.compare_reports(quick_report, jittered)
        assert result.passed and not result.warnings

    def test_disappeared_counter_fails(self, quick_report):
        candidate = copy.deepcopy(quick_report)
        del candidate["workloads"]["graph.build"]["telemetry"]["counters"][
            "graph.edges"]
        result = bench.compare_reports(quick_report, candidate)
        assert any(f.gate == "counter" and "disappeared" in f.message
                   for f in result.failures)

    def test_missing_workload_fails_new_workload_warns(self, quick_report):
        candidate = copy.deepcopy(quick_report)
        entry = candidate["workloads"].pop("graph.build")
        candidate["workloads"]["graph.rebuild"] = entry
        result = bench.compare_reports(quick_report, candidate)
        assert any(f.severity == "fail" and f.workload == "graph.build"
                   for f in result.findings)
        assert any(f.severity == "warn" and f.workload == "graph.rebuild"
                   for f in result.findings)

    def test_wall_time_regression_is_advisory_by_default(self, quick_report):
        slow = copy.deepcopy(quick_report)
        entry = slow["workloads"]["autodiff.gather_rows"]
        entry["median_seconds"] *= 10.0
        result = bench.compare_reports(quick_report, slow)
        assert result.passed
        assert any(w.gate == "time" for w in result.warnings)

        strict = bench.compare_reports(
            quick_report, slow, bench.CompareConfig(strict_time=True))
        assert not strict.passed
        assert any(f.gate == "time" for f in strict.failures)

    def test_noise_within_iqr_slack_passes_silently(self, quick_report):
        wobble = copy.deepcopy(quick_report)
        entry = wobble["workloads"]["autodiff.gather_rows"]
        base = quick_report["workloads"]["autodiff.gather_rows"]
        entry["median_seconds"] = (base["median_seconds"] * 1.2
                                   + base["iqr_seconds"])
        result = bench.compare_reports(quick_report, wobble)
        assert not [f for f in result.findings if f.gate == "time"]


class TestTrendReport:
    def test_trend_tables_and_skip_list(self, quick_report, tmp_path):
        bench.save_report(quick_report, str(tmp_path / "BENCH_a.json"))
        newer = copy.deepcopy(quick_report)
        newer["created_unix"] += 60.0
        bench.save_report(newer, str(tmp_path / "BENCH_b.json"))
        (tmp_path / "BENCH_bogus.json").write_text("{\"schema\": \"nope\"}")

        text = bench.trend_report(str(tmp_path))
        for workload in TEST_WORKLOADS:
            assert f"## `{workload}`" in text
        assert text.count("| 20") >= 4      # two rows per workload table
        assert "BENCH_bogus.json" in text   # skipped, not fatal

    def test_empty_directory_renders_note(self, tmp_path):
        text = bench.trend_report(str(tmp_path))
        assert "No valid" in text


class TestCLI:
    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "graph.build" in out and "ppr.push" in out

    def test_bench_run_writes_valid_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_quick.json")
        code = main(["bench", "run", "--suite", "quick",
                     "--workload", "autodiff.gather_rows",
                     "--warmup", "0", "--min-repeats", "1",
                     "--max-repeats", "1", "--budget-seconds", "0",
                     "--out", out])
        assert code == 0
        report = bench.load_report(out)
        assert list(report["workloads"]) == ["autodiff.gather_rows"]
        assert "[wrote" in capsys.readouterr().out

    def test_bench_run_unknown_workload(self, capsys):
        code = main(["bench", "run", "--workload", "no.such.workload"])
        assert code == 2
        assert "unknown workloads" in capsys.readouterr().err

    def test_bench_compare_exit_codes(self, quick_report, tmp_path, capsys):
        base = str(tmp_path / "BENCH_base.json")
        bench.save_report(quick_report, base)
        assert main(["bench", "compare", base, base]) == 0

        regressed = copy.deepcopy(quick_report)
        regressed["workloads"]["graph.build"]["telemetry"]["counters"][
            "graph.edges"]["total"] *= 2
        cand = str(tmp_path / "BENCH_cand.json")
        bench.save_report(regressed, cand)
        assert main(["bench", "compare", base, cand]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_compare_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "compare", missing, missing]) == 2
        assert "bench compare" in capsys.readouterr().err

    def test_bench_report_to_file(self, quick_report, tmp_path):
        bench.save_report(quick_report, str(tmp_path / "BENCH_a.json"))
        out = str(tmp_path / "trend.md")
        assert main(["bench", "report", str(tmp_path), "--out", out]) == 0
        with open(out) as handle:
            assert "# Benchmark trend report" in handle.read()

"""Tests for the observability layer (``repro.telemetry``).

Covers the tracer itself (nested-span exclusive-time accounting,
counter/histogram aggregation, thread safety, disabled-mode no-ops),
the JSONL sink round-trip, the run manifest, and the integration with
the training pipeline and the ``repro profile`` CLI subcommand.
"""

import json
import threading
import time
import warnings

import numpy as np
import pytest

from repro import telemetry as tm
from repro.telemetry.tracer import HISTOGRAM_SAMPLE_CAP


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts disabled with an empty registry."""
    tm.disable()
    tm.reset()
    yield
    tm.disable()
    tm.reset()


class TestSpans:
    def test_span_records_count_and_time(self):
        with tm.enabled():
            for _ in range(3):
                with tm.span("t.unit"):
                    time.sleep(0.002)
        stats = tm.get_registry().spans["t.unit"]
        assert stats.count == 3
        assert stats.total_seconds >= 3 * 0.002
        assert stats.min_seconds <= stats.max_seconds
        assert stats.max_seconds <= stats.total_seconds

    def test_nested_spans_exclusive_accounting(self):
        with tm.enabled():
            with tm.span("outer"):
                time.sleep(0.01)
                with tm.span("inner"):
                    time.sleep(0.02)
        outer = tm.get_registry().spans["outer"]
        inner = tm.get_registry().spans["inner"]
        # Inclusive: outer covers inner; exclusive: outer excludes it.
        assert outer.total_seconds >= inner.total_seconds
        assert outer.exclusive_seconds == pytest.approx(
            outer.total_seconds - inner.total_seconds, abs=1e-6)
        assert inner.exclusive_seconds == pytest.approx(
            inner.total_seconds, abs=1e-9)
        assert outer.exclusive_seconds < outer.total_seconds

    def test_three_level_nesting(self):
        with tm.enabled():
            with tm.span("a"):
                with tm.span("b"):
                    with tm.span("c"):
                        time.sleep(0.005)
        spans = tm.get_registry().spans
        assert spans["a"].total_seconds >= spans["b"].total_seconds
        assert spans["b"].total_seconds >= spans["c"].total_seconds
        # b's exclusive time excludes c, but b's inclusive feeds into a.
        assert spans["b"].exclusive_seconds == pytest.approx(
            spans["b"].total_seconds - spans["c"].total_seconds, abs=1e-6)

    def test_siblings_both_subtracted_from_parent(self):
        with tm.enabled():
            with tm.span("parent"):
                with tm.span("child"):
                    time.sleep(0.004)
                with tm.span("child"):
                    time.sleep(0.004)
        parent = tm.get_registry().spans["parent"]
        child = tm.get_registry().spans["child"]
        assert child.count == 2
        assert parent.exclusive_seconds == pytest.approx(
            parent.total_seconds - child.total_seconds, abs=1e-6)

    def test_span_elapsed_available_when_disabled(self):
        with tm.span("ignored") as sp:
            time.sleep(0.003)
        assert sp.elapsed >= 0.003
        assert tm.get_registry().is_empty()

    def test_span_survives_exception(self):
        with tm.enabled():
            with pytest.raises(RuntimeError):
                with tm.span("boom"):
                    raise RuntimeError("x")
        assert tm.get_registry().spans["boom"].count == 1


class TestTimedDecorator:
    def test_timed_records_span_per_call(self):
        @tm.timed("bench.work")
        def work(x, y=1):
            time.sleep(0.001)
            return x + y

        with tm.enabled():
            assert work(2, y=3) == 5
            assert work(1) == 2
        stats = tm.get_registry().spans["bench.work"]
        assert stats.count == 2
        assert stats.total_seconds >= 0.002

    def test_timed_preserves_metadata_and_is_cheap_when_disabled(self):
        @tm.timed("bench.quiet")
        def quiet():
            """docstring survives"""
            return 7

        assert quiet.__name__ == "quiet"
        assert quiet.__doc__ == "docstring survives"
        assert quiet() == 7
        assert tm.get_registry().is_empty()

    def test_timed_supports_introspection(self):
        """functools.wraps contract: bench registry listings read the
        wrapped callable's identity and signature, not the wrapper's."""
        import inspect

        @tm.timed("bench.introspect")
        def workload(users, depth=3):
            """Build and rank."""
            return users * depth

        assert workload.__wrapped__.__name__ == "workload"
        assert workload.__qualname__.endswith("workload")
        assert list(inspect.signature(workload).parameters) == \
            ["users", "depth"]
        assert workload.__module__ == __name__
        assert inspect.unwrap(workload)(2, depth=5) == 10

    def test_timed_closes_span_when_function_raises(self):
        @tm.timed("bench.boom")
        def boom():
            raise ValueError("x")

        with tm.enabled():
            with pytest.raises(ValueError):
                boom()
            # The failed call's span must have been popped: a sibling
            # span recorded afterwards nests under nothing.
            with tm.span("bench.after"):
                pass
        registry = tm.get_registry()
        assert registry.spans["bench.boom"].count == 1
        assert registry.spans["bench.after"].count == 1


class TestInstruments:
    def test_counter_accumulates(self):
        with tm.enabled():
            tm.counter("edges", 5)
            tm.counter("edges", 7)
            tm.counter("edges")
        stats = tm.get_registry().counters["edges"]
        assert stats.total == 13
        assert stats.updates == 3

    def test_gauge_keeps_last_value(self):
        with tm.enabled():
            tm.gauge("residual", 0.5)
            tm.gauge("residual", 0.125)
        stats = tm.get_registry().gauges["residual"]
        assert stats.value == 0.125
        assert stats.updates == 2

    def test_histogram_aggregation(self):
        with tm.enabled():
            for value in [1.0, 2.0, 3.0, 4.0]:
                tm.histogram("sizes", value)
        stats = tm.get_registry().histograms["sizes"]
        assert stats.count == 4
        assert stats.total == 10.0
        assert stats.mean == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.percentile(50) == 2.0
        assert stats.percentile(100) == 4.0

    def test_histogram_sample_cap_keeps_exact_totals(self):
        with tm.enabled():
            for value in range(HISTOGRAM_SAMPLE_CAP + 50):
                tm.histogram("big", float(value))
        stats = tm.get_registry().histograms["big"]
        assert stats.count == HISTOGRAM_SAMPLE_CAP + 50
        assert len(stats.values) == HISTOGRAM_SAMPLE_CAP
        assert stats.maximum == float(HISTOGRAM_SAMPLE_CAP + 49)


class TestDisabledMode:
    def test_disabled_instruments_are_noops(self):
        assert not tm.is_enabled()
        with tm.span("s"):
            pass
        tm.counter("c", 3)
        tm.gauge("g", 1.0)
        tm.histogram("h", 2.0)
        registry = tm.get_registry()
        assert registry.is_empty()
        assert registry.snapshot() == {"spans": {}, "counters": {},
                                       "gauges": {}, "histograms": {}}

    def test_pipeline_records_nothing_when_disabled(self):
        from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
        from repro.data import lastfm_like, traditional_split

        dataset = lastfm_like(seed=0, scale=0.1)
        split = traditional_split(dataset, seed=0)
        model = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=2, seed=0),
            TrainConfig(epochs=1, batch_users=16, k=5, seed=0))
        model.fit(split)
        assert tm.get_registry().is_empty()
        # Derived statistics still work without the registry.
        assert model.ppr_seconds > 0
        assert model.history[-1].cumulative_seconds > 0

    def test_enabled_context_restores_previous_state(self):
        assert not tm.is_enabled()
        with tm.enabled():
            assert tm.is_enabled()
            with tm.enabled(False):
                assert not tm.is_enabled()
            assert tm.is_enabled()
        assert not tm.is_enabled()


class TestThreadSafety:
    def test_concurrent_counters_and_spans(self):
        workers = 8
        increments = 500
        barrier = threading.Barrier(workers)

        def work():
            barrier.wait()
            for _ in range(increments):
                tm.counter("shared", 1)
                with tm.span("threaded"):
                    pass

        with tm.enabled():
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        registry = tm.get_registry()
        assert registry.counters["shared"].total == workers * increments
        assert registry.spans["threaded"].count == workers * increments

    def test_span_stacks_are_per_thread(self):
        errors = []

        def work(name):
            try:
                for _ in range(200):
                    with tm.span(f"outer.{name}"):
                        with tm.span(f"inner.{name}"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with tm.enabled():
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        spans = tm.get_registry().spans
        for i in range(4):
            assert spans[f"outer.{i}"].count == 200
            # inner time never leaks into a sibling thread's outer span
            assert spans[f"outer.{i}"].exclusive_seconds <= \
                spans[f"outer.{i}"].total_seconds + 1e-9


class TestSinksAndManifest:
    def test_jsonl_round_trip(self, tmp_path):
        with tm.enabled():
            with tm.span("train.epoch"):
                time.sleep(0.001)
            tm.counter("ppr.edges_kept", 42)
            tm.gauge("ppr.residual", 1e-4)
            tm.histogram("graph.nodes_per_layer.l1", 17)
        manifest = tm.RunManifest(run="test", seed=7,
                                  config={"dim": 8}, dataset={"users": 3},
                                  metrics={"recall@20": 0.5})
        path = str(tmp_path / "dump.jsonl")
        lines = tm.write_jsonl(path, manifest=manifest)
        assert lines == 5

        records = list(tm.read_jsonl(path))
        assert len(records) == 5
        parsed, sections = tm.split_records(records)
        assert parsed["run"] == "test"
        assert parsed["seed"] == 7
        assert parsed["metrics"]["recall@20"] == 0.5
        assert sections["span"]["train.epoch"]["count"] == 1
        assert sections["counter"]["ppr.edges_kept"]["total"] == 42
        assert sections["gauge"]["ppr.residual"]["value"] == 1e-4
        assert sections["histogram"]["graph.nodes_per_layer.l1"]["max"] == 17
        rebuilt = tm.RunManifest.from_record(parsed)
        assert rebuilt.seed == 7 and rebuilt.config == {"dim": 8}

    def test_read_jsonl_tolerates_unknown_record_kinds(self, tmp_path):
        """Forward compatibility: new record kinds must not break readers."""
        with tm.enabled():
            tm.counter("ppr.push_ops", 3)
        path = str(tmp_path / "dump.jsonl")
        tm.write_jsonl(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"record": "flux_capacitor",
                                     "name": "future", "jigawatts": 1.21})
                         + "\n")

        records = list(tm.read_jsonl(path))
        assert {"record": "flux_capacitor", "name": "future",
                "jigawatts": 1.21} in records
        manifest, sections = tm.split_records(records)
        assert manifest is None
        assert sections["counter"]["ppr.push_ops"]["total"] == 3
        assert all("future" not in section
                   for section in sections.values())

    def test_jsonl_is_valid_json_per_line(self, tmp_path):
        with tm.enabled():
            tm.counter("x", 1)
        path = str(tmp_path / "dump.jsonl")
        tm.write_jsonl(path)
        with open(path) as handle:
            for line in handle:
                json.loads(line)

    def test_manifest_converts_numpy_and_dataclasses(self):
        from repro.core import KUCNetConfig

        record = tm.RunManifest(
            run="np", config=KUCNetConfig(),
            metrics={"value": np.float64(0.25),
                     "count": np.int64(3)}).to_record()
        assert record["config"]["dim"] == 48
        assert record["metrics"]["value"] == 0.25
        assert isinstance(record["metrics"]["count"], int)
        json.dumps(record)  # fully serializable

    def test_read_jsonl_is_a_lazy_generator(self, tmp_path):
        """Streaming contract: records come out one at a time, so `repro
        runs trend` over a large index stays O(1) in file size."""
        import types

        path = str(tmp_path / "big.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(100):
                handle.write(json.dumps({"record": "row", "i": index}) + "\n")

        stream = tm.read_jsonl(path)
        assert isinstance(stream, types.GeneratorType)
        assert next(stream) == {"record": "row", "i": 0}
        assert next(stream) == {"record": "row", "i": 1}
        # The remainder is still pending, not buffered up front.
        rest = list(stream)
        assert len(rest) == 98 and rest[-1]["i"] == 99

    def test_manifest_round_trip_with_numpy_and_path_fields(self, tmp_path):
        """Coerce-to-JSON-native: numpy scalars/arrays and Path values in
        a manifest serialize instead of raising (run-registry commits
        pass experiment configs through verbatim)."""
        from pathlib import Path

        manifest = tm.RunManifest(
            run="coerce", seed=np.int64(7),
            config={"out_dir": Path("/tmp/runs"),
                    "weights": np.array([0.5, 1.5]),
                    "epochs": np.int32(3),
                    "grid": np.arange(4).reshape(2, 2)},
            metrics={"recall@20": np.float32(0.125),
                     "loss": np.float64(0.5)})
        record = manifest.to_record()
        json.dumps(record)  # fully serializable, nothing raises
        assert record["seed"] == 7
        assert record["config"]["out_dir"] == str(Path("/tmp/runs"))
        assert record["config"]["weights"] == [0.5, 1.5]
        assert record["config"]["epochs"] == 3
        assert record["config"]["grid"] == [[0, 1], [2, 3]]
        assert record["metrics"]["recall@20"] == 0.125

        rebuilt = tm.RunManifest.from_record(
            json.loads(json.dumps(record)))
        assert rebuilt.run == "coerce" and rebuilt.seed == 7
        assert rebuilt.config["weights"] == [0.5, 1.5]
        assert rebuilt.metrics["loss"] == 0.5

    def test_summary_table_renders_all_sections(self):
        with tm.enabled():
            with tm.span("a.span"):
                pass
            tm.counter("a.counter", 2)
            tm.gauge("a.gauge", 1.5)
            tm.histogram("a.hist", 3.0)
        text = tm.summary_table()
        for token in ("spans", "counters", "gauges", "histograms",
                      "a.span", "a.counter", "a.gauge", "a.hist"):
            assert token in text

    def test_summary_table_empty_registry(self):
        assert tm.summary_table() == "(no telemetry recorded)"


class TestPipelineIntegration:
    def test_fit_and_evaluate_emit_expected_spans(self):
        from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
        from repro.data import lastfm_like, traditional_split
        from repro.eval import evaluate

        dataset = lastfm_like(seed=0, scale=0.1)
        split = traditional_split(dataset, seed=0)
        with tm.enabled():
            model = KUCNetRecommender(
                KUCNetConfig(dim=8, depth=2, seed=0),
                TrainConfig(epochs=1, batch_users=16, k=5, seed=0))
            model.fit(split)
            evaluate(model, split, max_users=8)

        snap = tm.get_registry().snapshot()
        for name in ("train.fit", "train.epoch", "train.batch",
                     "ppr.precompute", "ppr.power_iteration", "ppr.prune",
                     "graph.build", "autodiff.backward",
                     "eval.score", "eval.rank"):
            assert snap["spans"][name]["count"] > 0, name
            assert snap["spans"][name]["total_seconds"] > 0, name
        # The propagation hot path records autodiff.fused_* instead of
        # per-op segment_sum counters (gather_rows still fires on the
        # readout/scoring path).
        expected = ["ppr.edges_kept", "ppr.edges_pruned", "ppr.sweeps",
                    "autodiff.gather_rows", "autodiff.fused_calls",
                    "autodiff.fused_saved_bytes",
                    "graph.builds", "train.pairs", "eval.users"]
        for name in expected:
            assert snap["counters"][name]["total"] > 0, name
        assert snap["histograms"]["autodiff.tape_nodes"]["count"] > 0
        assert snap["histograms"]["graph.nodes_per_layer.l1"]["count"] > 0
        assert snap["histograms"]["graph.edges_per_layer.l2"]["count"] > 0
        # epochs nest under fit: exclusive(fit) < inclusive(fit)
        fit = snap["spans"]["train.fit"]
        assert fit["exclusive_seconds"] < fit["total_seconds"]

    def test_graph_stats_emits_instruments(self):
        from repro.analysis import computation_graph_stats
        from repro.data import lastfm_like, traditional_split
        from repro.sampling import build_user_centric_graph

        dataset = lastfm_like(seed=0, scale=0.1)
        split = traditional_split(dataset, seed=0)
        ckg = dataset.build_ckg(split.train)
        graph = build_user_centric_graph(ckg, [0, 1], depth=2, k=None,
                                         sampler="random",
                                         rng=np.random.default_rng(0))
        with tm.enabled():
            stats = computation_graph_stats(graph)
        snap = tm.get_registry().snapshot()
        assert snap["histograms"]["graph.nodes_per_layer.l0"]["max"] == \
            stats.nodes_per_layer[0]
        assert snap["histograms"]["graph.edges_per_layer.l1"]["max"] == \
            stats.edges_per_layer[0]
        assert snap["counters"]["graph.edges"]["total"] == stats.total_edges


class TestProfileCLI:
    def test_profile_jsonl_manifest(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "profile.jsonl")
        assert main(["profile", "--scale", "0.1", "--epochs", "1",
                     "--sink", "jsonl", "--out", out]) == 0
        manifest, sections = tm.split_records(tm.read_jsonl(out))
        assert manifest is not None
        assert manifest["run"] == "profile:lastfm_like"
        assert "recall@20" in manifest["metrics"]
        assert manifest["dataset"]["users"] > 0
        for name in ("train.epoch", "ppr.prune", "graph.build", "eval.rank"):
            assert sections["span"][name]["count"] > 0, name

    def test_profile_table_sink(self, capsys):
        from repro.cli import main

        assert main(["profile", "--scale", "0.1", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "train.epoch" in out
        assert '"record": "manifest"' in out

    def test_profile_jsonl_requires_out(self, capsys):
        from repro.cli import main

        assert main(["profile", "--sink", "jsonl"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_profile_unknown_dataset(self, capsys):
        from repro.cli import main

        assert main(["profile", "--dataset", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestSpanErrors:
    """Satellite coverage: error accounting and mismatched-exit tolerance."""

    def test_exception_records_error_flag_and_counter(self):
        with tm.enabled():
            with pytest.raises(ValueError):
                with tm.span("risky"):
                    raise ValueError("boom")
            with tm.span("risky"):
                pass
        snap = tm.get_registry().snapshot()
        assert snap["spans"]["risky"]["errors"] == 1
        assert snap["spans"]["risky"]["count"] == 2
        assert snap["counters"]["risky.errors"]["total"] == 1

    def test_error_exit_times_like_a_clean_exit(self):
        with tm.enabled():
            with pytest.raises(RuntimeError):
                with tm.span("timed.err"):
                    time.sleep(0.002)
                    raise RuntimeError("x")
        stats = tm.get_registry().spans["timed.err"]
        assert stats.count == 1
        assert stats.total_seconds >= 0.002
        assert stats.total_seconds == pytest.approx(stats.max_seconds)

    def test_clean_exit_records_no_error(self):
        with tm.enabled():
            with tm.span("fine"):
                pass
        snap = tm.get_registry().snapshot()
        assert snap["spans"]["fine"]["errors"] == 0
        assert "fine.errors" not in snap["counters"]

    def test_summary_table_shows_errors_column(self):
        with tm.enabled():
            with pytest.raises(ValueError):
                with tm.span("risky"):
                    raise ValueError("boom")
        table = tm.summary_table()
        header = [line for line in table.splitlines() if "errors" in line]
        assert header, table

    def test_generator_held_span_closed_from_another_frame(self):
        """The mismatched-exit tolerance branch of ``Span.__exit__``.

        A span opened inside a generator can be force-closed by an
        *outer* span's exit (the generator was abandoned mid-flight);
        when the generator is finalized its own ``__exit__`` runs with
        the span no longer on the stack and must not double-record.
        """
        def held():
            with tm.span("gen.inner"):
                yield 1
                yield 2

        with tm.enabled():
            with tm.capture_events() as log:
                with tm.span("outer"):
                    gen = held()
                    next(gen)           # gen.inner now inside outer
                # outer's exit force-closes the abandoned gen.inner
                gen.close()             # inner's own __exit__: no re-emit
        snap = tm.get_registry().snapshot()
        assert snap["spans"]["outer"]["count"] == 1
        assert snap["spans"]["gen.inner"]["count"] == 1
        kinds = [(e.kind, e.name) for e in log.events()]
        assert kinds == [("B", "outer"), ("B", "gen.inner"),
                         ("E", "gen.inner"), ("E", "outer")]
        tm.validate_chrome_trace(tm.to_chrome_trace(log))

    def test_mismatched_exit_keeps_stack_consistent(self):
        with tm.enabled():
            held = tm.span("held")
            with tm.span("outer"):
                held.__enter__()
            # "held" was force-closed by outer's exit; closing it again
            # from this frame must not corrupt subsequent nesting.
            held.__exit__(None, None, None)
            with tm.span("outer"):
                with tm.span("inner"):
                    pass
        spans = tm.get_registry().snapshot()["spans"]
        assert spans["outer"]["count"] == 2
        assert spans["inner"]["count"] == 1
        # The forced close only balances the event stream; registry
        # stats come from the span's own __exit__, exactly once.
        assert spans["held"]["count"] == 1


class TestMergeSnapshotSections:
    """Satellite coverage: gauge/histogram merge from multiple workers."""

    def _worker_snapshot(self, gauge_value, histogram_values, errors=0):
        registry = tm.MetricsRegistry()
        registry.set_gauge("w.gauge", gauge_value)
        for value in histogram_values:
            registry.observe("w.hist", value)
        registry.record_span("w.span", 0.01, 0.01, error=bool(errors))
        return registry.snapshot()

    def test_gauges_take_last_write_in_merge_order(self):
        registry = tm.MetricsRegistry()
        registry.merge_snapshot(self._worker_snapshot(1.0, [1.0]))
        registry.merge_snapshot(self._worker_snapshot(2.0, [2.0]))
        snap = registry.snapshot()
        assert snap["gauges"]["w.gauge"]["value"] == 2.0
        assert snap["gauges"]["w.gauge"]["updates"] == 2

    def test_histograms_accumulate_exact_aggregates(self):
        registry = tm.MetricsRegistry()
        registry.merge_snapshot(self._worker_snapshot(0.0, [1.0, 3.0]))
        registry.merge_snapshot(self._worker_snapshot(0.0, [5.0]))
        rec = registry.snapshot()["histograms"]["w.hist"]
        assert rec["count"] == 3
        assert rec["min"] == 1.0
        assert rec["max"] == 5.0
        assert rec["mean"] == pytest.approx(3.0)

    def test_span_errors_accumulate_across_workers(self):
        registry = tm.MetricsRegistry()
        registry.merge_snapshot(self._worker_snapshot(0.0, [], errors=1))
        registry.merge_snapshot(self._worker_snapshot(0.0, [], errors=1))
        registry.merge_snapshot(self._worker_snapshot(0.0, [], errors=0))
        rec = registry.snapshot()["spans"]["w.span"]
        assert rec["count"] == 3
        assert rec["errors"] == 2

    def test_merge_tolerates_snapshots_without_errors_field(self):
        snapshot = self._worker_snapshot(0.0, [])
        del snapshot["spans"]["w.span"]["errors"]
        registry = tm.MetricsRegistry()
        registry.merge_snapshot(snapshot)
        assert registry.snapshot()["spans"]["w.span"]["errors"] == 0

    def test_merge_accumulates_health_alert_counters(self):
        """Worker registries carrying health.alerts counters fold
        additively — the committed run must see the fleet-wide total."""
        def worker(alerts_by_check):
            registry = tm.MetricsRegistry()
            for check, count in alerts_by_check.items():
                registry.add("health.alerts", count)
                registry.add(f"health.alerts.{check}", count)
            return registry.snapshot()

        registry = tm.MetricsRegistry()
        registry.merge_snapshot(worker({"grad_norm": 2, "loss_spike": 1}))
        registry.merge_snapshot(worker({"grad_norm": 1}))
        registry.merge_snapshot(worker({}))
        counters = registry.snapshot()["counters"]
        assert counters["health.alerts"]["total"] == 4
        assert counters["health.alerts.grad_norm"]["total"] == 3
        assert counters["health.alerts.loss_spike"]["total"] == 1
        assert counters["health.alerts"]["updates"] == 3


class TestSplitRecordsManifests:
    """Satellite coverage: duplicate-manifest warning in split_records."""

    def test_duplicate_manifests_warn_and_keep_last(self):
        records = [
            tm.RunManifest(run="first").to_record(),
            {"record": "counter", "name": "c", "total": 1.0, "updates": 1},
            tm.RunManifest(run="second").to_record(),
        ]
        with pytest.warns(RuntimeWarning, match="multiple manifest"):
            manifest, sections = tm.split_records(records)
        assert manifest["run"] == "second"
        assert sections["counter"]["c"]["total"] == 1.0

    def test_single_manifest_stays_quiet(self):
        records = [tm.RunManifest(run="only").to_record()]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            manifest, _ = tm.split_records(records)
        assert manifest["run"] == "only"

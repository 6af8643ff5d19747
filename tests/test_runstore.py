"""Tests for repro.runstore: registry, diff/trend, hook, live exporter."""

import copy
import json
import os
import socket
import threading
import time
import types
import urllib.error
import urllib.request

import pytest

from repro import runstore, telemetry as tm
from repro.bench.artifact import SCHEMA
from repro.bench.compare import compare_reports
from repro.cli import main
from repro.engine import Engine
from repro.runstore import (MetricsExporter, RunRecorderHook, RunStore,
                            render_prometheus, robust_z_scores,
                            validate_prometheus_text)
from repro.runstore import exporter as exporter_module


@pytest.fixture(autouse=True)
def clean_telemetry_and_exporter():
    """Every test starts disabled, with no registry state or exporter."""
    tm.disable()
    tm.reset()
    yield
    runstore.stop_exporter()
    tm.disable()
    tm.reset()


def make_snapshot(counters=None, gauges=None):
    """A registry snapshot with the given counter totals."""
    registry = tm.MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.add(name, value)
    for name, value in (gauges or {}).items():
        registry.set_gauge(name, value)
    registry.record_span("train.epoch", 0.01, 0.01)
    registry.observe("autodiff.tape_bytes", 1024.0)
    return registry.snapshot()


def make_bench_report(counters, median=0.01, suite="quick"):
    """A minimal valid repro.bench/1 report with one workload."""
    return {
        "schema": SCHEMA, "suite": suite, "git_sha": "deadbeef",
        "machine": {}, "config": {}, "created_unix": 1_700_000_000.0,
        "manifest": {"record": "manifest", "run": f"bench:{suite}",
                     "seed": 0, "config": {}, "dataset": {}, "metrics": {},
                     "created_unix": 1_700_000_000.0},
        "workloads": {
            "train.epoch": {
                "median_seconds": median, "iqr_seconds": 0.001,
                "min_seconds": median, "max_seconds": median,
                "repeats": 3, "warmup": 1,
                "seconds": [median] * 3,
                "telemetry": make_snapshot(counters),
            },
        },
    }


def commit_run(store, kind="train", counters=None, name="train:test",
               **kwargs):
    manifest = tm.RunManifest(run=name, seed=0,
                              metrics={"recall@20": 0.25})
    return store.commit(kind, manifest,
                        snapshot=make_snapshot(counters or {"a": 1.0}),
                        **kwargs)


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "registry"))


class TestRunStore:
    def test_commit_writes_run_dir_and_index_line(self, store):
        record = commit_run(
            store, counters={"train.epochs": 3.0, "ppr.push_ops": 500.0},
            health_records=[{"record": "health", "epoch": 0},
                            {"record": "alert", "check": "grad_norm"}],
            wall_seconds=1.5)

        directory = store.run_dir(record.run_id)
        present = sorted(os.listdir(directory))
        assert present == ["health.json", "manifest.json", "metrics.json",
                           "record.json"]
        assert record.kind == "train"
        assert record.counters["train.epochs"] == 3.0
        assert record.alerts == 1
        assert record.wall_seconds == 1.5
        assert record.metrics == {"recall@20": 0.25}

        with open(store.index_path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == 1
        assert lines[0]["run_id"] == record.run_id
        assert lines[0]["counters"]["ppr.push_ops"] == 500.0

    def test_round_trip_through_index_and_files(self, store):
        record = commit_run(store, counters={"graph.edges": 42.0})
        [loaded] = list(store.iter_records())
        assert loaded == record
        assert store.load_manifest(record.run_id)["run"] == "train:test"
        metrics = store.load_metrics(record.run_id)
        assert metrics["counters"]["graph.edges"]["total"] == 42.0

    def test_get_by_unique_prefix_and_ambiguity(self, store):
        first = commit_run(store)
        second = commit_run(store)
        assert store.get(first.run_id) == first
        # Both ids share the timestamp-kind-pid stem; the full stem
        # matches the first exactly, while a shorter shared prefix is
        # ambiguous.
        with pytest.raises(KeyError, match="ambiguous"):
            store.get(first.run_id[:10])
        assert store.get(second.run_id) == second
        with pytest.raises(KeyError, match="unknown run"):
            store.get("nope")

    def test_iter_records_is_lazy(self, store):
        for _ in range(3):
            commit_run(store)
        stream = store.iter_records()
        assert isinstance(stream, types.GeneratorType)
        assert next(stream).kind == "train"

    def test_records_limit_keeps_newest(self, store):
        ids = [commit_run(store).run_id for _ in range(4)]
        tail = store.records(limit=2)
        assert [r.run_id for r in tail] == ids[-2:]

    def test_gc_removes_oldest_and_rewrites_index(self, store):
        ids = [commit_run(store).run_id for _ in range(4)]
        would = store.gc(keep=1, dry_run=True)
        assert sorted(would) == sorted(ids[:3])
        assert len(store.records()) == 4  # dry run removed nothing

        removed = store.gc(keep=1)
        assert sorted(removed) == sorted(ids[:3])
        survivors = store.records()
        assert [r.run_id for r in survivors] == ids[-1:]
        for run_id in removed:
            assert not os.path.exists(store.run_dir(run_id))
        assert os.path.exists(store.run_dir(ids[-1]))

    def test_gc_by_kind_leaves_other_kinds_alone(self, store):
        train_ids = [commit_run(store).run_id for _ in range(2)]
        bench_id = commit_run(store, kind="bench").run_id
        removed = store.gc(keep=0, kind="train")
        assert sorted(removed) == sorted(train_ids)
        assert [r.run_id for r in store.records()] == [bench_id]

    def test_active_store_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(runstore.ENV_RUNS_DIR, raising=False)
        assert runstore.active_store() is None
        explicit = runstore.active_store(str(tmp_path / "x"))
        assert explicit is not None and explicit.root.endswith("x")
        monkeypatch.setenv(runstore.ENV_RUNS_DIR, str(tmp_path / "y"))
        from_env = runstore.active_store()
        assert from_env is not None and from_env.root.endswith("y")

    def test_suppression_nests(self):
        assert not runstore.auto_commit_suppressed()
        with runstore.suppress_auto_commit():
            assert runstore.auto_commit_suppressed()
            with runstore.suppress_auto_commit():
                assert runstore.auto_commit_suppressed()
            assert runstore.auto_commit_suppressed()
        assert not runstore.auto_commit_suppressed()


class TestRunRecorderHook:
    def _fit(self, hook):
        engine = Engine(optimizer=None, hooks=[hook])
        engine.fit(step=lambda batch: None,
                   batches=lambda epoch: [(0, 1)], epochs=2)

    def test_commits_train_run_on_fit_end(self, store):
        with tm.enabled():
            tm.counter("train.pairs", 7)
            hook = RunRecorderHook(
                lambda: tm.RunManifest(run="train:hooked"), store=store)
            self._fit(hook)
        assert hook.last_record is not None
        [record] = store.records()
        assert record.kind == "train" and record.name == "train:hooked"
        assert record.counters["train.pairs"] == 7.0

    def test_inert_without_active_store(self, monkeypatch):
        monkeypatch.delenv(runstore.ENV_RUNS_DIR, raising=False)
        hook = RunRecorderHook(
            lambda: pytest.fail("manifest_fn must not run"))
        self._fit(hook)
        assert hook.last_record is None

    def test_suppressed_inside_cli_owned_commits(self, store):
        hook = RunRecorderHook(
            lambda: pytest.fail("manifest_fn must not run"), store=store)
        with runstore.suppress_auto_commit():
            self._fit(hook)
        assert hook.last_record is None
        assert store.records() == []

    def test_env_var_enables_recording(self, store, monkeypatch):
        monkeypatch.setenv(runstore.ENV_RUNS_DIR, store.root)
        hook = RunRecorderHook(lambda: tm.RunManifest(run="train:env"))
        self._fit(hook)
        [record] = store.records()
        assert record.name == "train:env"


class TestDiff:
    def test_bench_runs_reproduce_bench_compare_verdict(self, store):
        report = make_bench_report({"ppr.push_ops": 1000.0,
                                    "graph.edges": 64.0})
        manifest = tm.RunManifest.from_record(report["manifest"])
        a = store.commit("bench", manifest, bench_report=report)
        b = store.commit("bench", manifest,
                         bench_report=copy.deepcopy(report))

        _, _, result = runstore.diff_runs(store, a.run_id, b.run_id)
        direct = compare_reports(report, report)
        assert result.passed and direct.passed
        assert result.findings == direct.findings
        assert result.counters_compared == direct.counters_compared

    def test_doubled_counter_fails_like_bench_compare(self, store):
        base = make_bench_report({"ppr.push_ops": 1000.0})
        worse = copy.deepcopy(base)
        worse["workloads"]["train.epoch"]["telemetry"]["counters"][
            "ppr.push_ops"]["total"] *= 2
        manifest = tm.RunManifest.from_record(base["manifest"])
        a = store.commit("bench", manifest, bench_report=base)
        b = store.commit("bench", manifest, bench_report=worse)

        _, _, result = runstore.diff_runs(store, a.run_id, b.run_id)
        assert not result.passed
        [failure] = result.failures
        assert failure.gate == "counter" and failure.name == "ppr.push_ops"
        # Same verdict the bench compare engine gives on the raw reports.
        assert not compare_reports(base, worse).passed

    def test_non_bench_runs_diff_as_pseudo_workload(self, store):
        a = commit_run(store, counters={"train.epochs": 3.0},
                       wall_seconds=2.0)
        b = commit_run(store, counters={"train.epochs": 3.0},
                       wall_seconds=2.1)
        base_label, cand_label, result = runstore.diff_runs(
            store, a.run_id, b.run_id)
        assert base_label == a.run_id and cand_label == b.run_id
        assert result.passed
        assert result.workloads_compared == 1

        worse = commit_run(store, counters={"train.epochs": 9.0})
        _, _, regressed = runstore.diff_runs(store, a.run_id, worse.run_id)
        assert not regressed.passed

    def test_path_reference_loads_bench_artifact(self, store, tmp_path):
        report = make_bench_report({"graph.edges": 10.0})
        path = str(tmp_path / "BENCH_quick.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
        manifest = tm.RunManifest.from_record(report["manifest"])
        run = store.commit("bench", manifest,
                           bench_report=copy.deepcopy(report))
        label, _, result = runstore.diff_runs(store, path, run.run_id)
        assert label == "BENCH_quick.json"
        assert result.passed


class TestTrend:
    def test_robust_z_flags_outlier_not_masked_by_it(self):
        values = [100.0, 100.0, 100.0, 100.0, 1000.0]
        scores = robust_z_scores(values)
        assert scores[:4] == [0.0] * 4
        assert scores[4] == float("inf")  # MAD 0: any deviation flags

        noisy = [10.0, 11.0, 9.0, 10.5, 9.5, 100.0]
        scores = robust_z_scores(noisy)
        assert abs(scores[-1]) > 3.0
        assert all(abs(s) < 3.0 for s in scores[:-1])

    def test_compute_trend_flags_anomalous_run(self, store):
        for _ in range(4):
            commit_run(store, counters={"ppr.push_ops": 1000.0})
        odd = commit_run(store, counters={"ppr.push_ops": 5000.0})
        report = runstore.compute_trend(store)
        assert report.anomalous_run_ids == [odd.run_id]
        [trend] = [t for t in report.counters if t.name == "ppr.push_ops"]
        assert trend.anomalies == [odd.run_id]
        text = runstore.render_trend(report)
        assert "5000 !" in text and "anomalies" in text

    def test_trend_defaults_include_health_alerts_when_recorded(self, store):
        commit_run(store, counters={"health.alerts": 2.0})
        report = runstore.compute_trend(store)
        assert "health.alerts" in [t.name for t in report.counters]

    def test_trend_streams_index_without_opening_run_files(self, store,
                                                           monkeypatch):
        for _ in range(3):
            commit_run(store)
        monkeypatch.setattr(RunStore, "load_metrics",
                            lambda *a: pytest.fail("opened a run file"))
        report = runstore.compute_trend(store)
        assert len(report.runs) == 3


class TestExporter:
    def test_render_prometheus_labels_and_synthesized_health(self):
        snapshot = make_snapshot({"train.epochs": 3.0,
                                  "ppr.push_ops": 12.0},
                                 gauges={"ppr.residual_mass": 1e-3})
        text = render_prometheus(snapshot)
        assert 'repro_counter_total{name="train.epochs"} 3' in text
        assert 'repro_counter_total{name="ppr.push_ops"} 12' in text
        assert 'repro_counter_total{name="health.alerts"} 0' in text
        assert 'repro_gauge{name="ppr.residual_mass"}' in text
        assert 'repro_span_seconds_total{name="train.epoch"}' in text
        assert 'repro_histogram_max{name="autodiff.tape_bytes"} 1024' in text
        counts = validate_prometheus_text(text)
        assert counts["samples"] >= 6 and counts["families"] >= 4

    def test_validate_rejects_malformed_text(self):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_prometheus_text("this is { not prometheus\n")
        with pytest.raises(ValueError, match="no samples"):
            validate_prometheus_text("# TYPE repro_gauge gauge\n")
        with pytest.raises(ValueError, match="newline"):
            validate_prometheus_text("repro_gauge 1")

    def test_http_scrape_serves_live_and_published_metrics(self):
        registry = tm.MetricsRegistry()
        registry.add("train.epochs", 2.0)
        exporter = MetricsExporter(port=0, registry=registry,
                                   snapshot_interval=0.0)
        port = exporter.start()
        try:
            # Published snapshots (finished bench workloads) merge with
            # the live registry in one scrape.
            exporter.publish(make_snapshot({"ppr.push_ops": 7.0}))
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5) as reply:
                assert reply.status == 200
                assert "text/plain" in reply.headers["Content-Type"]
                body = reply.read().decode("utf-8")
            validate_prometheus_text(body)
            assert 'repro_counter_total{name="train.epochs"} 2' in body
            assert 'repro_counter_total{name="ppr.push_ops"} 7' in body
            assert 'repro_counter_total{name="health.alerts"} 0' in body

            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=5) as reply:
                health = json.loads(reply.read().decode("utf-8"))
            assert health["status"] == "ok"
            assert health["health_alerts"] == 0.0

            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=5)
        finally:
            exporter.stop()

    def test_singleton_start_stop_and_publish(self):
        assert runstore.active_exporter() is None
        runstore.publish_snapshot(make_snapshot({"x": 1.0}))  # no-op, no err
        exporter = runstore.start_exporter(0, snapshot_interval=0.0)
        try:
            assert runstore.active_exporter() is exporter
            assert runstore.start_exporter(0) is exporter  # idempotent
            runstore.publish_snapshot(make_snapshot({"ppr.sweeps": 4.0}))
            merged = exporter.combined_snapshot()
            assert merged["counters"]["ppr.sweeps"]["total"] == 4.0
        finally:
            runstore.stop_exporter()
        assert runstore.active_exporter() is None

    def test_taken_port_raises_clear_error(self):
        # Regression: binding a taken port used to leak the raw OSError
        # traceback; it now raises a RuntimeError pointing at port 0.
        first = MetricsExporter(port=0, registry=tm.MetricsRegistry(),
                                snapshot_interval=0.0)
        port = first.start()
        assert port > 0 and first.port == port  # ephemeral port reported
        second = MetricsExporter(port=port, registry=tm.MetricsRegistry(),
                                 snapshot_interval=0.0)
        try:
            with pytest.raises(RuntimeError, match="already in use"):
                second.start()
        finally:
            first.stop()

    @pytest.mark.parametrize("scraped", [False, True])
    def test_stop_returns_at_once_and_releases_the_port(self, scraped):
        # A stop must not wait out a poll interval of the accept loop.
        exporter = MetricsExporter(port=0, registry=tm.MetricsRegistry())
        port = exporter.start()
        if scraped:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                                        timeout=5) as reply:
                assert reply.status == 200
        threads = (exporter._serve_thread, exporter._snapshot_thread)
        started = time.perf_counter()
        exporter.stop()
        assert time.perf_counter() - started < 0.05
        assert not any(thread.is_alive() for thread in threads)
        again = MetricsExporter(port=port, registry=tm.MetricsRegistry(),
                                snapshot_interval=0.0)
        try:
            assert again.start() == port
        finally:
            again.stop()

    def test_background_snapshot_thread_is_bounded(self):
        exporter = MetricsExporter(port=0, registry=tm.MetricsRegistry(),
                                   snapshot_interval=0.01, max_snapshots=3)
        exporter.start()
        try:
            deadline = threading.Event()
            deadline.wait(0.15)
            assert len(exporter._snapshots) <= 3
            assert exporter._snapshot_thread is not None
            assert exporter._snapshot_thread.daemon
        finally:
            exporter.stop()


def _raw_post(port, headers, body=b""):
    """Send a hand-written POST; returns the raw reply bytes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(b"POST /interactions HTTP/1.1\r\nHost: localhost\r\n"
                     + headers + b"\r\n" + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestExporterRequestBounds:
    """A POST's Content-Length cannot make a handler fail, allocate or
    wait without bound."""

    @pytest.fixture
    def port(self, monkeypatch):
        monkeypatch.setattr(exporter_module, "REQUEST_TIMEOUT_SECONDS", 0.2)
        exporter = MetricsExporter(port=0, registry=tm.MetricsRegistry(),
                                   snapshot_interval=0.0)
        yield exporter.start()
        exporter.stop()

    @staticmethod
    def _status(reply):
        assert reply.startswith(b"HTTP/"), f"no HTTP reply: {reply[:80]!r}"
        return int(reply.split(b" ", 2)[1])

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1e3"])
    def test_malformed_length_is_400(self, port, length):
        reply = _raw_post(port, b"Content-Length: " + length + b"\r\n")
        assert self._status(reply) == 400
        assert b"invalid Content-Length" in reply

    def test_oversized_length_is_413_without_reading(self, port):
        reply = _raw_post(port, b"Content-Length: 99999999999\r\n")
        assert self._status(reply) == 413
        # just over the cap is refused too; the handler reads nothing
        length = str(exporter_module.MAX_BODY_BYTES + 1).encode()
        assert self._status(_raw_post(
            port, b"Content-Length: " + length + b"\r\n")) == 413
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz",
                                    timeout=5) as reply:
            assert reply.status == 200

    def test_short_body_times_out_with_408(self, port):
        # The socket stays open with 5 of 50 declared bytes sent.
        reply = _raw_post(port, b"Content-Length: 50\r\n", b"{\"a\":")
        assert self._status(reply) == 408

    def test_body_within_bounds_reaches_the_router(self, port):
        reply = _raw_post(port, b"Content-Length: 2\r\n", b"{}")
        assert self._status(reply) == 404  # the base exporter has no POSTs


class TestRunsCLI:
    def _seed(self, store):
        a = commit_run(store, counters={"train.epochs": 2.0})
        b = commit_run(store, counters={"train.epochs": 2.0})
        return a, b

    def test_list_shows_runs(self, store, capsys):
        a, b = self._seed(store)
        assert main(["runs", "list", "--dir", store.root]) == 0
        out = capsys.readouterr().out
        assert a.run_id in out and b.run_id in out

    def test_list_empty_registry(self, store, capsys):
        assert main(["runs", "list", "--dir", store.root]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show_prints_record_and_manifest(self, store, capsys):
        a, _ = self._seed(store)
        assert main(["runs", "show", a.run_id, "--dir", store.root]) == 0
        out = capsys.readouterr().out
        assert a.run_id in out and "train:test" in out

    def test_show_unknown_run_exits_2(self, store, capsys):
        assert main(["runs", "show", "missing", "--dir", store.root]) == 2
        assert "missing" in capsys.readouterr().err

    def test_diff_exit_codes_follow_verdict(self, store, capsys):
        a, b = self._seed(store)
        assert main(["runs", "diff", a.run_id, b.run_id,
                     "--dir", store.root]) == 0
        assert "PASS" in capsys.readouterr().out
        worse = commit_run(store, counters={"train.epochs": 20.0})
        assert main(["runs", "diff", a.run_id, worse.run_id,
                     "--dir", store.root]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_trend_renders_table(self, store, capsys):
        self._seed(store)
        assert main(["runs", "trend", "--dir", store.root,
                     "--counter", "train.epochs"]) == 0
        out = capsys.readouterr().out
        assert "train.epochs" in out and "no anomalies" in out

    def test_gc_dry_run_then_real(self, store, capsys):
        a, b = self._seed(store)
        assert main(["runs", "gc", "--keep", "1", "--dry-run",
                     "--dir", store.root]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert main(["runs", "gc", "--keep", "1",
                     "--dir", store.root]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert [r.run_id for r in store.records()] == [b.run_id]


class TestManifestCoercionInCommit:
    def test_numpy_and_path_configs_commit_cleanly(self, store, tmp_path):
        import numpy as np

        manifest = tm.RunManifest(
            run="train:coerce", seed=np.int64(3),
            config={"out": tmp_path / "weights.npz",
                    "budgets": np.array([10, 20, 30])},
            metrics={"loss": np.float32(0.5)})
        record = store.commit("train", manifest,
                              snapshot=make_snapshot({"a": 1.0}))
        loaded = store.load_manifest(record.run_id)
        assert loaded["config"]["budgets"] == [10, 20, 30]
        assert loaded["config"]["out"].endswith("weights.npz")
        assert record.metrics["loss"] == 0.5

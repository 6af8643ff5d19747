"""Parallel execution layer: equivalence, telemetry merge, fallback.

The contract under test (docs/performance.md, "Parallel execution"):
for any ``num_workers``, fan-out produces **bitwise-identical** results
to the serial path, and the telemetry counters merged back from workers
equal the serial run's counters exactly.  The PPR precompute checks run
under both start methods and on both score stores, so one test pass
covers every worker × store branch of the precompute.
"""

import multiprocessing as mp
import os
import tempfile
import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
from repro.data import lastfm_like, traditional_split
from repro.eval import evaluate
from repro.health import HealthConfig, HealthError, HealthMonitor
from repro.parallel import chunk_sequence, resolve_workers, run_parallel
from repro.parallel import pool as parallel_pool
from repro.ppr import concat_sparse_scores, forward_push_batch
from repro.telemetry.tracer import MetricsRegistry

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def split():
    return traditional_split(lastfm_like(seed=0, scale=0.4), seed=0)


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    """Run the pool under each multiprocessing start method in turn.

    The bitwise serial/parallel contract must hold under both context
    transports: fork (workers inherit the parent's memory) and spawn
    (context pickled through the pool initializer — what platforms
    without fork and the mmap store's by-path transport rely on).
    Spawn is forced by hiding ``fork`` from the pool's platform check,
    so the pool takes the branch such a platform takes.
    """
    methods = mp.get_all_start_methods()
    if request.param not in methods:
        pytest.skip(f"start method {request.param!r} unavailable")
    if request.param == "spawn":
        monkeypatch.setattr(parallel_pool.mp, "get_all_start_methods",
                            lambda: [m for m in methods if m != "fork"])
    return request.param


def _domain_counters(snapshot):
    """Counter totals excluding the parallel layer's own namespace."""
    return {name: record["total"]
            for name, record in snapshot["counters"].items()
            if not name.startswith("parallel.")}


def _prepare(split, *, ppr_method, num_workers, store="ram"):
    telemetry.reset()
    with telemetry.enabled():
        rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=2, seed=0),
            TrainConfig(epochs=1, k=10, seed=0, ppr_method=ppr_method,
                        ppr_chunk_users=16, num_workers=num_workers,
                        ppr_store=store))
        rec.prepare(split)
    snapshot = telemetry.get_registry().snapshot()
    telemetry.reset()
    return rec, snapshot


@pytest.fixture(scope="module")
def serial_run(split):
    """``_prepare`` at one worker per (method, store), computed once."""
    runs = {}

    def get(ppr_method, store):
        if (ppr_method, store) not in runs:
            runs[ppr_method, store] = _prepare(
                split, ppr_method=ppr_method, num_workers=1, store=store)
        return runs[ppr_method, store]

    return get


# ----------------------------------------------------------------------
# run_parallel primitives
# ----------------------------------------------------------------------

def _square(context, task):
    return context * task * task


def _echo_lambda(context, task):
    return lambda: task  # unpicklable result -> forces the fallback


def _log_call_then_fail_task_2(log_dir, task):
    """Leave one ``<task>-<pid>-*`` file per call; task 2 raises."""
    handle, _ = tempfile.mkstemp(prefix=f"{task}-{os.getpid()}-",
                                 dir=log_dir)
    os.close(handle)
    if task == 2:
        raise ValueError("task 2 failed")
    return task


def _resolved_inside_worker(context, task):
    return resolve_workers(16)


class TestRunParallel:
    def test_serial_fast_path_matches_plain_loop(self):
        tasks = list(range(7))
        assert run_parallel(_square, tasks, context=3, num_workers=1) \
            == [3 * t * t for t in tasks]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_results_in_task_order(self, workers):
        tasks = list(range(11))
        assert run_parallel(_square, tasks, context=2,
                            num_workers=workers) == [2 * t * t for t in tasks]

    def test_single_task_stays_serial(self):
        assert run_parallel(_square, [5], context=1, num_workers=4) == [25]

    def test_unpicklable_result_falls_back_to_serial(self):
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            results = run_parallel(_echo_lambda, [1, 2], num_workers=2)
        assert [fn() for fn in results] == [1, 2]

    def test_fallback_bumps_counter(self):
        telemetry.reset()
        with telemetry.enabled():
            with pytest.warns(RuntimeWarning):
                run_parallel(_echo_lambda, [1, 2], num_workers=2)
            snapshot = telemetry.get_registry().snapshot()
        telemetry.reset()
        assert snapshot["counters"]["parallel.fallbacks"]["total"] == 1.0

    def test_task_exception_is_not_a_pool_failure(self, tmp_path):
        """A task's own error reaches the caller once, with no fallback:
        no warning, no ``parallel.fallbacks``, no task rerun in the
        parent."""
        telemetry.reset()
        with telemetry.enabled(), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="task 2 failed"):
                run_parallel(_log_call_then_fail_task_2, range(4),
                             context=str(tmp_path), num_workers=2)
            snapshot = telemetry.get_registry().snapshot()
        telemetry.reset()
        assert [str(w.message) for w in caught] == []
        assert "parallel.fallbacks" not in snapshot["counters"]
        calls = [name.split("-")[:2] for name in os.listdir(tmp_path)]
        tasks = [int(task) for task, _ in calls]
        # every task runs at most once; the pool may cancel the ones
        # not yet started when task 2 fails
        assert len(tasks) == len(set(tasks))
        assert {0, 1, 2} <= set(tasks)
        assert str(os.getpid()) not in {pid for _, pid in calls}

    def test_parallel_namespace_recorded(self):
        telemetry.reset()
        with telemetry.enabled():
            run_parallel(_square, [1, 2, 3], context=1, num_workers=2)
            snapshot = telemetry.get_registry().snapshot()
        telemetry.reset()
        assert snapshot["counters"]["parallel.tasks"]["total"] == 3.0
        assert snapshot["gauges"]["parallel.workers"]["value"] == 2.0
        assert snapshot["histograms"]["parallel.chunk_seconds"]["count"] == 3


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_bad_env_value_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "many")
        with pytest.warns(RuntimeWarning):
            assert resolve_workers(None) == 1

    def test_worker_processes_never_nest(self, start_method):
        assert run_parallel(_resolved_inside_worker, [0, 1],
                            num_workers=2) == [1, 1]
        assert resolve_workers(16) == 16


class TestChunkSequence:
    def test_partitions_in_order(self):
        chunks = chunk_sequence(list(range(10)), 4)
        assert [list(c) for c in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7],
                                             [8, 9]]

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_sequence([1], 0)


# ----------------------------------------------------------------------
# Telemetry merge
# ----------------------------------------------------------------------

class TestMergeSnapshot:
    def _worker_registry(self):
        registry = MetricsRegistry()
        registry.add("ppr.push_ops", 100.0)
        registry.add("ppr.push_ops", 50.0)
        registry.record_span("ppr.forward_push", 0.5, 0.4)
        registry.set_gauge("ppr.residual_mass", 0.25)
        registry.observe("graph.edges_per_layer.l1", 10.0)
        registry.observe("graph.edges_per_layer.l1", 30.0)
        return registry

    def test_counters_accumulate(self):
        parent = MetricsRegistry()
        parent.add("ppr.push_ops", 7.0)
        parent.merge_snapshot(self._worker_registry().snapshot())
        record = parent.snapshot()["counters"]["ppr.push_ops"]
        assert record["total"] == 157.0
        assert record["updates"] == 3

    def test_merge_into_empty_registry(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(self._worker_registry().snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["ppr.push_ops"]["total"] == 150.0
        assert snap["spans"]["ppr.forward_push"]["count"] == 1
        assert snap["gauges"]["ppr.residual_mass"]["value"] == 0.25
        hist = snap["histograms"]["graph.edges_per_layer.l1"]
        assert hist["count"] == 2
        assert hist["total"] == 40.0
        assert hist["min"] == 10.0 and hist["max"] == 30.0

    def test_span_min_max_take_extrema(self):
        parent = MetricsRegistry()
        parent.record_span("ppr.forward_push", 1.0, 1.0)
        parent.merge_snapshot(self._worker_registry().snapshot())
        record = parent.snapshot()["spans"]["ppr.forward_push"]
        assert record["count"] == 2
        assert record["total_seconds"] == pytest.approx(1.5)
        assert record["min_seconds"] == 0.5
        assert record["max_seconds"] == 1.0

    def test_gauge_adopts_snapshot_value(self):
        parent = MetricsRegistry()
        parent.set_gauge("ppr.residual_mass", 9.0)
        parent.merge_snapshot(self._worker_registry().snapshot())
        record = parent.snapshot()["gauges"]["ppr.residual_mass"]
        assert record["value"] == 0.25
        assert record["updates"] == 2

    def test_merge_order_independence_of_additive_fields(self):
        snaps = []
        for value in (3.0, 5.0):
            registry = MetricsRegistry()
            registry.add("graph.edges", value)
            snaps.append(registry.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snaps:
            forward.merge_snapshot(snap)
        for snap in reversed(snaps):
            backward.merge_snapshot(snap)
        assert (forward.snapshot()["counters"]["graph.edges"]["total"]
                == backward.snapshot()["counters"]["graph.edges"]["total"]
                == 8.0)

    def test_module_level_merge_respects_enable_flag(self):
        telemetry.reset()
        snap = self._worker_registry().snapshot()
        telemetry.merge_snapshot(snap)          # disabled -> no-op
        assert telemetry.get_registry().is_empty()
        with telemetry.enabled():
            telemetry.merge_snapshot(snap)
        assert not telemetry.get_registry().is_empty()
        telemetry.reset()


# ----------------------------------------------------------------------
# PPR precompute equivalence (the acceptance gate)
# ----------------------------------------------------------------------

class TestPPREquivalence:
    """Serial ≡ parallel precompute on the in-RAM score store.

    Scores are compared bitwise with the serial RAM run; counters with
    the serial run on the same store (mmap adds ``storage.*``).
    """

    STORE = "ram"

    def _run(self, split, serial_run, ppr_method, workers):
        """A fresh run at ``workers``, its snapshot, and the snapshot of
        the serial run on the same store."""
        other, other_snap = _prepare(split, ppr_method=ppr_method,
                                     num_workers=workers, store=self.STORE)
        return other, other_snap, serial_run(ppr_method, self.STORE)[1]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_power_scores_bitwise_identical(self, split, serial_run,
                                            workers, start_method):
        reference, _ = serial_run("power", "ram")
        other, other_snap, serial_snap = self._run(split, serial_run,
                                                   "power", workers)
        assert isinstance(other.ppr_scores, np.memmap) \
            == (self.STORE == "mmap")
        assert np.array_equal(reference.ppr_scores, other.ppr_scores)
        assert _domain_counters(serial_snap) == _domain_counters(other_snap)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_push_scores_bitwise_identical(self, split, serial_run,
                                           workers, start_method):
        reference, _ = serial_run("push", "ram")
        other, other_snap, serial_snap = self._run(split, serial_run,
                                                   "push", workers)
        reference_scores = reference.ppr_scores
        other_scores = other.ppr_scores
        assert np.array_equal(reference_scores.users, other_scores.users)
        assert reference_scores.residual == other_scores.residual
        # the solver parameters survive the fan-out's concatenation
        config = reference.train_config
        for scores in (reference_scores, other_scores):
            assert (scores.alpha, scores.epsilon) \
                == (config.ppr_alpha, config.ppr_epsilon)
        assert hasattr(other_scores, "indptr") == (self.STORE == "ram")
        if self.STORE == "mmap":
            # sharded store: materialize its rows as one CSR block
            other_scores = other_scores.select(other_scores.users.tolist())
        for attribute in ("indptr", "node_ids", "values"):
            assert np.array_equal(getattr(reference_scores, attribute),
                                  getattr(other_scores, attribute))
        assert _domain_counters(serial_snap) == _domain_counters(other_snap)

    def test_push_gauges_match_serial(self, split, serial_run,
                                      start_method):
        _, serial_snap = serial_run("push", self.STORE)
        _, worker_snap = _prepare(split, ppr_method="push", num_workers=2,
                                  store=self.STORE)
        for gauge in ("ppr.residual_mass", "ppr.score_bytes"):
            assert (serial_snap["gauges"][gauge]["value"]
                    == worker_snap["gauges"][gauge]["value"])

    def test_concat_matches_single_call(self, split, serial_run):
        rec, _ = serial_run("push", self.STORE)
        users = np.arange(rec.ckg.num_users)
        whole = forward_push_batch(rec.ckg, users, chunk_users=16)
        parts = [forward_push_batch(rec.ckg, chunk, chunk_users=chunk.size)
                 for chunk in chunk_sequence(users, 16)]
        stitched = concat_sparse_scores(parts)
        assert np.array_equal(whole.indptr, stitched.indptr)
        assert np.array_equal(whole.node_ids, stitched.node_ids)
        assert np.array_equal(whole.values, stitched.values)
        assert whole.residual == stitched.residual


class TestPPREquivalenceOnMmap(TestPPREquivalence):
    """Every check above with the sharded mmap score store (the
    worker × mmap branches of the precompute)."""

    STORE = "mmap"


# ----------------------------------------------------------------------
# Eval equivalence
# ----------------------------------------------------------------------

class _OneRowScorer:
    """Scores one row whatever the batch size (module-level: picklable)."""

    def __init__(self, num_items):
        self.num_items = num_items

    def score_users(self, users):
        return np.zeros((1, self.num_items))


class _NaNScorer(_OneRowScorer):
    """Right shape, one non-finite score per batch."""

    def score_users(self, users):
        scores = np.zeros((len(users), self.num_items))
        scores[0, 0] = np.nan
        return scores


class TestEvalEquivalence:
    @pytest.fixture(scope="class")
    def model(self, split):
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=2, seed=0),
                                TrainConfig(epochs=1, k=10, seed=0))
        rec.fit(split)
        return rec

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_metrics_bitwise_identical(self, model, split, workers,
                                       start_method):
        serial = evaluate(model, split, batch_size=8, num_workers=1)
        result = evaluate(model, split, batch_size=8, num_workers=workers)
        assert result.recall == serial.recall
        assert result.ndcg == serial.ndcg
        assert result.per_user_recall == serial.per_user_recall
        assert result.per_user_ndcg == serial.per_user_ndcg

    def test_counters_match_serial(self, model, split):
        def run(workers):
            telemetry.reset()
            with telemetry.enabled():
                evaluate(model, split, batch_size=8, num_workers=workers)
            snapshot = telemetry.get_registry().snapshot()
            telemetry.reset()
            return snapshot

        serial, parallel = run(1), run(2)
        assert _domain_counters(serial) == _domain_counters(parallel)
        assert (serial["counters"]["eval.users"]["total"]
                == parallel["counters"]["eval.users"]["total"])
        # span activity survives the merge (counts add across workers)
        assert (serial["spans"]["eval.score"]["count"]
                == parallel["spans"]["eval.score"]["count"])

    @pytest.mark.parametrize("scorer, health, error, match", [
        (_OneRowScorer, None, ValueError, "scorer returned 1 rows"),
        (_NaNScorer, "raise", HealthError, "nan_scores"),
    ])
    def test_worker_error_raised_without_fallback(self, split, scorer,
                                                  health, error, match):
        monitor = (HealthMonitor(HealthConfig(policy=health))
                   if health else None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match=match):
                evaluate(scorer(split.dataset.num_items), split,
                         batch_size=4, num_workers=2, health=monitor)
        assert [str(w.message) for w in caught] == []

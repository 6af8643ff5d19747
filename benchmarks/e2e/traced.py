"""The ``--trace`` pass: per-layer numbers, timed from outside the program.

A :class:`Tracer` replaces public functions at the names their callers
look them up (``repro.core.trainer.build_user_centric_graph``,
``KUCNet.propagate``, ...) with timing wrappers, and restores them
afterwards; nothing under ``src/`` is instrumented for it.  Counts come
from the telemetry counters the program already emits.

Each workload runs in process: one untraced pass (no probes, telemetry
off), then traced passes of the same work.  A pass is

* pipelines: generate → ``fit`` → ``evaluate`` → serve a query batch and
  one write over HTTP (the ROADMAP's generate-to-serve pipeline);
* serve: generate → the service ``repro serve`` builds → the workload's
  seeded request log replayed closed-loop over HTTP, closed by one write
  when the log holds none.

Some probes are *stages*: top-level, non-overlapping phases whose
seconds form the ledger.  Whatever a pass spends outside every stage is
the ledger's unattributed remainder, a gap in the attribution.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import shutil
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

import repro.core.trainer as trainer_module
import repro.eval.protocol as protocol_module
import repro.serve.service as service_module
from repro import telemetry
from repro.autodiff import Adam, Tensor
from repro.core import KUCNetRecommender
from repro.core.model import KUCNet
from repro.data.dataset import Dataset
from repro.engine.loop import Engine
from repro.ppr import SparsePPRScores
from repro.serve import RecommendationServer, RecommendationService, ServeConfig
from repro.storage import ShardedPPRScores

import checks
import loadgen
from workloads import (TOP_K, build_service, closing_write,
                       evaluate_recommender, make_recommender, make_split,
                       request_log, tail_log)

#: (owner, attribute, label, is a ledger stage)
PROBES = [
    (Dataset, "build_ckg", "graph.build_ckg", True),
    (trainer_module, "forward_push_batch", "ppr.precompute", True),
    (trainer_module, "forward_push_sharded", "ppr.precompute", True),
    (trainer_module, "personalized_pagerank_batch", "ppr.precompute", True),
    (trainer_module, "personalized_pagerank_mmap", "ppr.precompute", True),
    (service_module, "forward_push_batch", "ppr.serve_precompute", True),
    (service_module, "forward_push_sharded", "ppr.serve_precompute", True),
    (Engine, "run_epoch", "engine.epochs", True),
    (service_module, "incremental_push", "ppr.incremental", False),
    (SparsePPRScores, "select", "storage.select", False),
    (ShardedPPRScores, "select", "storage.select", False),
    (trainer_module, "build_user_centric_graph", "sampling.build", False),
    (service_module, "build_user_centric_graph", "sampling.build", False),
    (KUCNet, "propagate", "core.propagate", False),
    (KUCNet, "score_all_items", "core.score_items", False),
    (Tensor, "backward", "autodiff.backward", False),
    (Adam, "step", "autodiff.adam_step", False),
    (KUCNetRecommender, "score_users", "eval.score", False),
    (protocol_module, "rank_items", "eval.rank", False),
    (service_module, "rank_items", "eval.rank", False),
    (RecommendationService, "recommend", "serve.recommend", False),
    (RecommendationService, "add_interactions", "serve.update", False),
]

#: epoch time the probes attribute; the rest is ``engine.unattributed_s``
EPOCH_LAYERS = ("sampling.build", "core.propagate", "autodiff.backward",
                "autodiff.adam_step")

#: counters that must repeat exactly across a pipeline's traced passes
STRICT_COUNTERS = ("ppr.push_ops", "graph.edges", "train.pairs")

#: the Table VI and Fig. 6 claims, as bounds on pipeline.paper
TABLE6_MAX = 0.2
FIG6_MAX = 1.0
FIG6_USERS = 8
#: users whose cold HTTP answers from ``repro serve`` must equal the
#: in-process service's
COLD_USERS = list(range(8))
#: request-log length of the warm-up pass
WARMUP_SECONDS = 1.0


class Tracer:
    """Call timings and a stage ledger for one pass."""

    def __init__(self) -> None:
        #: label -> [(enclosing stage or None, seconds)]
        self.calls: Dict[str, List[Tuple[Optional[str], float]]] = \
            defaultdict(list)
        #: top-level stages in order: (name, seconds)
        self.stages: List[Tuple[str, float]] = []
        #: stage -> counter -> delta over that stage
        self.stage_counters: Dict[str, Dict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        self._stage: Optional[str] = None
        self._patches: List[tuple] = []

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """A ledger stage; nested inside another stage it is a plain call."""
        if self._stage is not None:
            with self._timed(name):
                yield
            return
        before = _counter_totals()
        self._stage = name
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            self._stage = None
            self.stages.append((name, seconds))
            self.calls[name].append((name, seconds))
            after = _counter_totals()
            for counter, total in after.items():
                self.stage_counters[name][counter] += \
                    total - before.get(counter, 0.0)

    @contextlib.contextmanager
    def _timed(self, label: str) -> Iterator[None]:
        stage = self._stage
        started = time.perf_counter()
        try:
            yield
        finally:
            self.calls[label].append((stage, time.perf_counter() - started))

    def install(self) -> None:
        """Wrap every :data:`PROBES` entry at its owner."""
        for owner, attribute, label, is_stage in PROBES:
            original = getattr(owner, attribute)
            scope = self.stage if is_stage else self._timed
            self._patches.append((owner, attribute, original,
                                  attribute in vars(owner)))
            setattr(owner, attribute, _wrapped(original, scope, label))

    def restore(self) -> None:
        for owner, attribute, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    # -- readers -------------------------------------------------------
    def seconds(self, label: str, stage: Optional[str] = None) -> float:
        return sum(seconds for where, seconds in self.calls[label]
                   if stage is None or where == stage)

    def durations(self, label: str) -> List[float]:
        return [seconds for _, seconds in self.calls[label]]


def _wrapped(original, scope, label: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with scope(label):
            return original(*args, **kwargs)
    return wrapper


def _counter_totals() -> Dict[str, float]:
    counters = telemetry.get_registry().counters
    return {name: stats.total for name, stats in list(counters.items())}


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------

def serve_over_http(service: RecommendationService, log) -> List[dict]:
    """Replay ``log`` closed-loop through an in-process HTTP server."""
    server = RecommendationServer(service, port=0)
    port = server.start()
    try:
        return loadgen.closed_loop(port, log)
    finally:
        server.stop()


def run_pass(spec, seed: int, seconds: float, work_dir: str,
             traced: bool) -> dict:
    """One in-process pass of ``spec``; returns its outputs and timings."""
    tracer = Tracer()
    store_dir = os.path.join(work_dir, "pass")
    if traced:
        telemetry.enable()
        telemetry.reset()
        tracer.install()
    started = time.perf_counter()
    result = cold = None
    try:
        with tracer.stage("data.generate"):
            split = make_split(spec, seed)
        if spec.kind == "pipeline":
            recommender = make_recommender(spec, seed,
                                           os.path.join(store_dir, "train"))
            recommender.fit(split)
            with tracer.stage("eval.evaluate"):
                result = evaluate_recommender(spec, recommender, split, seed)
            service = RecommendationService.from_recommender(
                recommender, split, ServeConfig(top_k=TOP_K),
                store_dir=os.path.join(store_dir, "serve"))
            log_started = time.perf_counter()
            log = tail_log(seed, split)
        else:
            recommender, service = build_service(spec, seed, split)
            log_started = time.perf_counter()
            log = request_log(spec, seed, seconds, split)
            log += closing_write(seed, split, log)
            if not traced:
                cold = {str(user): ranking.tolist() for user, ranking in
                        zip(COLD_USERS, service.recommend(COLD_USERS))}
                service.reset_cache()
        # building the log and the cold answers is benchmark work
        bookkeeping = time.perf_counter() - log_started
        with tracer.stage("serve.replay"):
            records = serve_over_http(service, log)
        total = time.perf_counter() - started - bookkeeping
        snapshot = telemetry.get_registry().snapshot()
    finally:
        if traced:
            tracer.restore()
            telemetry.disable()
            telemetry.reset()
        shutil.rmtree(store_dir, ignore_errors=True)
    return {"tracer": tracer, "total_s": total, "split": split,
            "recommender": recommender, "result": result, "records": records,
            "snapshot": snapshot, "cold": cold}


def cold_http_answers(spec, seed: int, work_dir: str) -> dict:
    """``repro serve``'s first answers for :data:`COLD_USERS`, cache cold."""
    server = loadgen.ServerProcess.launch(spec, seed, work_dir)
    try:
        status, body = loadgen.call(server.port, "/recommend",
                                    {"users": COLD_USERS, "k": TOP_K})
    finally:
        server.stop()
    return json.loads(body)["results"] if status == 200 else {}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter(outcome: dict, name: str) -> float:
    """A telemetry counter's total at the end of a pass (0 if never hit)."""
    return outcome["snapshot"]["counters"].get(name, {}).get("total", 0.0)


def layer_metrics(outcome: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see ``BENCHMARK.json``)."""
    tracer: Tracer = outcome["tracer"]
    recommender: KUCNetRecommender = outcome["recommender"]
    tape = outcome["snapshot"]["histograms"].get("autodiff.tape_bytes", {})
    count = functools.partial(_counter, outcome)
    writes = len(tracer.calls["serve.update"])
    epoch_s = sum(stats.seconds for stats in recommender.history)
    attributed = sum(tracer.seconds(label, "engine.epochs")
                     for label in EPOCH_LAYERS)
    reads = [record for record in outcome["records"]
             if record["path"] == "/recommend"]
    overheads = [record["done"] - record["sent"] - seconds for record, seconds
                 in zip(reads, tracer.durations("serve.recommend"))]
    staged = sum(seconds for _, seconds in tracer.stages)
    return {
        "data.generate_s": tracer.seconds("data.generate"),
        "graph.build_ckg_s": tracer.seconds("graph.build_ckg"),
        "graph.ckg_edges": float(recommender.ckg.num_edges),
        "ppr.precompute_s": tracer.seconds("ppr.precompute"),
        "ppr.push_ops": tracer.stage_counters["ppr.precompute"]["ppr.push_ops"],
        "ppr.sweeps": tracer.stage_counters["ppr.precompute"]["ppr.sweeps"],
        "ppr.score_bytes": float(recommender.ppr_scores.nbytes),
        "ppr.serve_precompute_s": tracer.seconds("ppr.serve_precompute"),
        "ppr.incremental_s_per_write":
            _ratio(tracer.seconds("ppr.incremental"), writes),
        "ppr.incremental_pushes_per_write":
            _ratio(count("ppr.incremental_pushes"), writes),
        "storage.select_s": tracer.seconds("storage.select"),
        "storage.shard_hit_ratio": _ratio(
            count("storage.shard_hits"),
            count("storage.shard_hits") + count("storage.shard_misses")),
        "storage.shards_written": count("storage.shards_written"),
        "sampling.build_s": tracer.seconds("sampling.build"),
        "sampling.edges_per_build": _ratio(count("graph.edges"),
                                           count("graph.builds")),
        "sampling.keep_ratio": _ratio(
            count("ppr.edges_kept"),
            count("ppr.edges_kept") + count("ppr.edges_pruned")),
        "train.graph_cache_hit_ratio": _ratio(
            recommender.graph_cache_hits,
            recommender.graph_cache_hits + recommender.graph_cache_misses),
        "core.propagate_s": tracer.seconds("core.propagate"),
        "core.score_items_s": tracer.seconds("core.score_items"),
        "autodiff.backward_s": tracer.seconds("autodiff.backward"),
        "autodiff.adam_step_s": tracer.seconds("autodiff.adam_step"),
        "autodiff.tape_bytes_max": float(tape.get("max", 0.0)),
        "autodiff.fused_calls": count("autodiff.fused_calls"),
        "engine.epoch_s": epoch_s,
        "engine.unattributed_s": epoch_s - attributed,
        "eval.rank_s": tracer.seconds("eval.rank"),
        "serve.recommend_ms":
            1e3 * statistics.median(tracer.durations("serve.recommend")),
        "serve.update_ms":
            1e3 * statistics.median(tracer.durations("serve.update")),
        "serve.cache_hit_ratio": _ratio(
            count("serve.cache_hits"),
            count("serve.cache_hits") + count("serve.cache_misses")),
        "serve.invalidations_per_write":
            _ratio(count("serve.cache_invalidations"), writes),
        "serve.http_overhead_ms": 1e3 * statistics.median(overheads),
        "ledger.unattributed_pct":
            100.0 * (outcome["total_s"] - staged) / outcome["total_s"],
        "paper.table6_ratio":
            _ratio(tracer.seconds("ppr.precompute"), epoch_s),
    }


def ledger(outcome: dict) -> List[dict]:
    """Per-stage seconds and share of the pass, plus the remainder."""
    total = outcome["total_s"]
    by_stage: Dict[str, float] = defaultdict(float)
    for name, seconds in outcome["tracer"].stages:
        by_stage[name] += seconds
    rows = [{"stage": name, "seconds": seconds, "share": seconds / total}
            for name, seconds in by_stage.items()]
    remainder = total - sum(by_stage.values())
    rows.append({"stage": "unattributed", "seconds": remainder,
                 "share": remainder / total})
    return rows


# ----------------------------------------------------------------------
# The workload's trace run
# ----------------------------------------------------------------------

def trace_workload(spec, seed: int, seconds: float, work_dir: str) -> dict:
    """Untraced pass, then traced passes; per-layer metrics and checks."""
    traced_passes = 2 if spec.kind == "pipeline" else 1
    # a toy-size pass first, so lazy imports and first-touch allocations
    # do not land on the untraced pass the overhead is measured against
    run_pass(spec.smoke(), seed, WARMUP_SECONDS, work_dir, traced=False)
    passes = []
    for traced in [False] + [True] * traced_passes:
        passes.append(run_pass(spec, seed, seconds, work_dir, traced))
        gc.collect()
    traced_outcomes = passes[1:]
    per_pass = [layer_metrics(outcome) for outcome in traced_outcomes]
    metrics = {name: statistics.median(values[name] for values in per_pass)
               for name in per_pass[0]}
    untraced_s = passes[0]["total_s"]
    traced_s = statistics.median(outcome["total_s"]
                                 for outcome in traced_outcomes)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)

    problems: List[str] = []
    attempted = failed = 0
    for outcome in passes:
        records = outcome["records"]
        attempted += 1 + len(records)
        bad = [record for record in records if record["status"] != 200]
        failed += len(bad)
        problems += [f"request {record['path']} failed: "
                     f"{record['error'] or record['status']}"
                     for record in bad[:3]]
        problems += checks.check_answers(records, outcome["split"], TOP_K)
    answers = [[record["body"] for record in outcome["records"]
                if record["path"] == "/recommend"] for outcome in passes]
    if any(bodies != answers[0] for bodies in answers[1:]):
        problems.append("replayed answers differ between passes")
    if spec.kind == "serve" \
            and cold_http_answers(spec, seed, work_dir) != passes[0]["cold"]:
        problems.append(f"cold HTTP answers for users {COLD_USERS} differ "
                        "from the in-process service's")

    diagnostics: Dict[str, object] = {
        "passes": len(passes), "untraced_s": untraced_s,
        "traced_s": traced_s,
        "eval.score_s": statistics.median(
            outcome["tracer"].seconds("eval.score")
            for outcome in traced_outcomes),
        "counters": {name: _counter(traced_outcomes[-1], name)
                     for name in STRICT_COUNTERS},
    }
    if spec.kind == "pipeline":
        problems += _pipeline_checks(passes, traced_outcomes)
        if spec.name == "pipeline.paper":
            problems += _paper_claims(metrics, passes[-1], diagnostics)
    return {"values": metrics, "ledger": ledger(traced_outcomes[-1]),
            "diagnostics": diagnostics, "problems": problems,
            "attempted": attempted, "failed": failed}


def _pipeline_checks(passes: List[dict], traced: List[dict]) -> List[str]:
    problems = []
    scores = {(outcome["result"].recall, outcome["result"].ndcg)
              for outcome in passes}
    if len(scores) != 1:
        problems.append(f"recall/ndcg differ between passes: {sorted(scores)}")
    for name in STRICT_COUNTERS:
        values = {_counter(outcome, name) for outcome in traced}
        if len(values) != 1:
            problems.append(f"counter {name} differs between traced "
                            f"passes: {sorted(values)}")
    return problems


def _paper_claims(metrics: Dict[str, float], outcome: dict,
                  diagnostics: Dict[str, object]) -> List[str]:
    """Table VI: PPR ≪ training.  Fig. 6: pruned graph ≪ Σ U-I graphs."""
    recommender = outcome["recommender"]
    users = outcome["split"].test_users[:FIG6_USERS]
    pruned = recommender.count_inference_edges(users, "pruned")
    per_pair = recommender.count_inference_edges(users, "ui")
    fig6 = pruned / per_pair
    diagnostics.update({"paper.fig6_ratio": fig6,
                        "paper.fig6_edges": [pruned, per_pair]})
    problems = []
    if not metrics["paper.table6_ratio"] < TABLE6_MAX:
        problems.append(f"Table VI: PPR / epochs = "
                        f"{metrics['paper.table6_ratio']:.3f}, "
                        f"expected < {TABLE6_MAX}")
    if not fig6 < FIG6_MAX:
        problems.append(f"Fig. 6: pruned / U-I edges = {fig6:.3f}, "
                        f"expected < {FIG6_MAX}")
    return problems

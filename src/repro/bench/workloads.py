"""The workload registry: named, parameterized wrappers of the hot paths.

Each :class:`Workload` pairs a ``build(**params)`` factory with one
parameter set per suite (``quick`` for CI, ``full`` for real hardware).
``build`` does all one-time setup — dataset generation, CKG assembly,
PPR precompute, model preparation — and returns a zero-argument ``run``
callable that performs exactly the work being measured, so the harness
times the hot path and nothing else.

Workload names mirror the telemetry span taxonomy
(``docs/observability.md``): the registry covers the autodiff graph
primitives (``autodiff.*``), computation-graph assembly
(``graph.build``), both PPR solver backends (``ppr.*``), a steady-state
training epoch (``train.epoch``), and all-ranking evaluation
(``eval.rank``) — the paths the paper's efficiency claims (Eq. 12,
Tables VI–VIII) live on.

Determinism matters more than realism here: every workload pins its
RNGs so the telemetry counters recorded by an instrumented run are
*identical* across repeats, machines, and CI runs.  That is what lets
the comparison engine gate strictly on counters while treating wall
time as advisory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

import numpy as np

from ..telemetry import timed

__all__ = ["Workload", "WORKLOADS", "SUITES", "register", "get_workloads",
           "make_runner"]

SUITES = ("quick", "full")

#: the shared substrate every macro workload runs on
_DATASET = "lastfm_like"


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    ``build(**params)`` performs setup and returns the timed callable;
    ``params`` maps each suite name to the keyword arguments ``build``
    receives for that suite.
    """

    name: str
    description: str
    build: Callable[..., Callable[[], Any]]
    params: Mapping[str, Dict[str, Any]]
    #: part of the no-arguments ``bench run`` suite?  Opt-out workloads
    #: (large-scale capacity probes) run only when named explicitly, so
    #: they never join the committed-baseline comparison set.
    default: bool = True


WORKLOADS: Dict[str, Workload] = {}


def register(name: str, description: str, *, quick: Dict[str, Any],
             full: Dict[str, Any], default: bool = True):
    """Decorator adding a ``build`` factory to the registry."""

    def decorate(build: Callable[..., Callable[[], Any]]):
        if name in WORKLOADS:
            raise ValueError(f"duplicate workload {name!r}")
        WORKLOADS[name] = Workload(name=name, description=description,
                                   build=build,
                                   params={"quick": quick, "full": full},
                                   default=default)
        return build

    return decorate


def get_workloads(names: List[str] = None) -> List[Workload]:
    """Resolve ``names`` in registry order; no names = default suite."""
    if not names:
        return [workload for workload in WORKLOADS.values()
                if workload.default]
    missing = [name for name in names if name not in WORKLOADS]
    if missing:
        raise KeyError(f"unknown workloads {missing}; "
                       f"choose from {sorted(WORKLOADS)}")
    return [WORKLOADS[name] for name in names]


def make_runner(workload: Workload, suite: str) -> Callable[[], Any]:
    """Build the workload for ``suite`` and wrap it in a ``bench.*`` span.

    The :func:`~repro.telemetry.timed` wrapper means the instrumented
    pass records one ``bench.<name>`` span alongside the workload's own
    instruments, so a dump shows the harness-observed wall time next to
    the interior phase breakdown.
    """
    if suite not in workload.params:
        raise KeyError(f"workload {workload.name!r} has no {suite!r} params")
    run = workload.build(**workload.params[suite])
    return timed(f"bench.{workload.name}")(run)


# ----------------------------------------------------------------------
# Autodiff graph primitives (the substrate that replaces PyTorch)
# ----------------------------------------------------------------------

def _edge_arrays(num_nodes: int, num_edges: int, rng: np.random.Generator):
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = np.sort(rng.integers(0, num_nodes, size=num_edges))
    rels = rng.integers(0, 10, size=num_edges)
    return src, dst, rels


@register("autodiff.gather_rows",
          "forward+backward of the embedding-lookup primitive",
          quick={"num_nodes": 2_000, "num_edges": 20_000, "dim": 32},
          full={"num_nodes": 5_000, "num_edges": 100_000, "dim": 48})
def _build_gather_rows(num_nodes: int, num_edges: int, dim: int):
    from ..autodiff import Tensor, gather_rows

    rng = np.random.default_rng(0)
    src, _, _ = _edge_arrays(num_nodes, num_edges, rng)
    x = Tensor(rng.normal(size=(num_nodes, dim)), requires_grad=True)

    def run():
        x.zero_grad()
        out = gather_rows(x, src)
        (out * out).sum().backward()

    return run


@register("autodiff.segment_sum",
          "forward+backward of the message-aggregation primitive (Eq. 5)",
          quick={"num_nodes": 2_000, "num_edges": 20_000, "dim": 32},
          full={"num_nodes": 5_000, "num_edges": 100_000, "dim": 48})
def _build_segment_sum(num_nodes: int, num_edges: int, dim: int):
    from ..autodiff import Tensor, segment_sum

    rng = np.random.default_rng(0)
    _, dst, _ = _edge_arrays(num_nodes, num_edges, rng)
    x = Tensor(rng.normal(size=(num_edges, dim)), requires_grad=True)

    def run():
        x.zero_grad()
        out = segment_sum(x, dst, num_nodes)
        (out * out).sum().backward()

    return run


@register("autodiff.attention_layer.fused",
          "one full KUCNet propagation layer, forward+backward (Eq. 5-6), "
          "single fused tape node for the gather→attend→message→aggregate "
          "chain",
          quick={"num_nodes": 2_000, "num_edges": 20_000, "dim": 32},
          full={"num_nodes": 5_000, "num_edges": 100_000, "dim": 48})
def _build_attention_layer(num_nodes: int, num_edges: int, dim: int):
    """One layer on pinned inputs.

    The super-op keeps no per-edge intermediates on the graph, and the
    ``autodiff.tape_bytes`` max this workload records gates strictly
    against the committed baseline.
    """
    from ..autodiff import Tensor
    from ..core.layers import AttentionMessagePassing
    from ..sampling import LayerEdges

    rng = np.random.default_rng(0)
    src, dst, rels = _edge_arrays(num_nodes, num_edges, rng)
    layer = AttentionMessagePassing(dim=dim, attn_dim=5, num_relations=10,
                                    rng=np.random.default_rng(0))
    hidden = Tensor(rng.normal(size=(num_nodes, dim)))
    edges = LayerEdges(src_pos=src, relations=rels, dst_pos=dst,
                       heads=src, tails=dst)

    def run():
        layer.zero_grad()
        out, _ = layer(hidden, edges, num_nodes)
        (out * out).sum().backward()

    return run


# ----------------------------------------------------------------------
# Pipeline phases on the synthetic CKG
# ----------------------------------------------------------------------

def _ckg(scale: float):
    from ..data import PRESETS, traditional_split

    dataset = PRESETS[_DATASET](seed=0, scale=scale)
    split = traditional_split(dataset, seed=0)
    return dataset, split, dataset.build_ckg(split.train)


@register("graph.build",
          "batched PPR-pruned user-centric computation graph assembly "
          "(Algorithm 1)",
          quick={"scale": 1.0, "batch_users": 24, "depth": 3, "k": 20},
          full={"scale": 2.0, "batch_users": 48, "depth": 3, "k": 20})
def _build_graph_build(scale: float, batch_users: int, depth: int, k: int):
    from ..ppr import personalized_pagerank_batch
    from ..sampling import build_user_centric_graph

    _, _, ckg = _ckg(scale)
    users = list(range(min(batch_users, ckg.num_users)))
    scores = personalized_pagerank_batch(ckg, users).scores

    def run():
        build_user_centric_graph(ckg, users, depth=depth,
                                 ppr_scores=scores, k=k,
                                 degree_normalized=True)

    return run


@register("ppr.power",
          "dense power-iteration PPR precompute, all users (Eq. 13)",
          quick={"scale": 1.0},
          full={"scale": 4.0})
def _build_ppr_power(scale: float):
    from ..ppr import personalized_pagerank_batch

    _, _, ckg = _ckg(scale)
    users = list(range(ckg.num_users))

    def run():
        personalized_pagerank_batch(ckg, users)

    return run


@register("ppr.push",
          "sparse forward-push PPR precompute with top-M storage, all users",
          quick={"scale": 1.0, "epsilon": 1e-4, "top_m": 256},
          full={"scale": 4.0, "epsilon": 1e-4, "top_m": 256})
def _build_ppr_push(scale: float, epsilon: float, top_m: int):
    from ..ppr import forward_push_batch

    _, _, ckg = _ckg(scale)
    users = list(range(ckg.num_users))

    def run():
        forward_push_batch(ckg, users, epsilon=epsilon, top_m=top_m)

    return run


@register("train.epoch",
          "one steady-state BPR training epoch (prepared model, warm "
          "graph cache)",
          quick={"scale": 0.3, "dim": 16, "depth": 2, "k": 10,
                 "batch_users": 16},
          full={"scale": 1.0, "dim": 32, "depth": 3, "k": 20,
                "batch_users": 24})
def _build_train_epoch(scale: float, dim: int, depth: int, k: int,
                       batch_users: int):
    from ..core import KUCNetConfig, KUCNetRecommender, TrainConfig
    from ..data import PRESETS, traditional_split

    dataset = PRESETS[_DATASET](seed=0, scale=scale)
    split = traditional_split(dataset, seed=0)
    config = TrainConfig(epochs=1, batch_users=batch_users, k=k, seed=0)
    model = KUCNetRecommender(KUCNetConfig(dim=dim, depth=depth, seed=0),
                              config)
    model.prepare(split)
    # The recommender's own optimizer factory: the bench epoch sees the
    # exact hyper-parameters fit() would use, so the two cannot drift.
    optimizer = model.make_optimizer()
    train_users = list(split.train.users_with_interactions())

    def run():
        # Re-seed the batch-permutation/pair-sampling stream so every
        # repeat trains on identical batches: the epoch's counter
        # profile must be run-invariant for the strict gates to hold.
        model._rng = np.random.default_rng(config.seed)
        model.run_epoch(split, optimizer, train_users)

    return run


def _build_parallel_ppr(scale: float, num_workers: int, epsilon: float,
                        top_m: int, chunk_users: int):
    """Shared factory for the serial/workers PPR fan-out pair."""
    from ..core.trainer import _ppr_push_chunk
    from ..parallel import chunk_sequence, run_parallel
    from ..ppr import concat_sparse_scores

    _, _, ckg = _ckg(scale)
    users = np.arange(ckg.num_users)
    chunks = chunk_sequence(users, chunk_users)
    context = (ckg, 0.15, epsilon, top_m)

    def run():
        parts = run_parallel(_ppr_push_chunk, chunks, context=context,
                             num_workers=num_workers, label="bench.ppr")
        concat_sparse_scores(parts)

    return run


@register("parallel.ppr_push.serial",
          "chunked forward-push PPR precompute, serial arm of the "
          "speedup pair",
          quick={"scale": 2.0, "num_workers": 1, "epsilon": 1e-4,
                 "top_m": 256, "chunk_users": 64},
          full={"scale": 4.0, "num_workers": 1, "epsilon": 1e-4,
                "top_m": 256, "chunk_users": 64})
def _build_parallel_ppr_serial(scale: float, num_workers: int, epsilon: float,
                               top_m: int, chunk_users: int):
    return _build_parallel_ppr(scale, num_workers, epsilon, top_m,
                               chunk_users)


@register("parallel.ppr_push.workers",
          "same chunks fanned across a 2-process pool; median ratio vs "
          "the serial arm is the recorded speedup",
          quick={"scale": 2.0, "num_workers": 2, "epsilon": 1e-4,
                 "top_m": 256, "chunk_users": 64},
          full={"scale": 4.0, "num_workers": 4, "epsilon": 1e-4,
                "top_m": 256, "chunk_users": 64})
def _build_parallel_ppr_workers(scale: float, num_workers: int,
                                epsilon: float, top_m: int,
                                chunk_users: int):
    return _build_parallel_ppr(scale, num_workers, epsilon, top_m,
                               chunk_users)


def _build_telemetry_loop(spans: int, dim: int, events: bool):
    """Shared factory for the aggregate-only/flight-recorder span pair.

    Each run executes the same triple-nested span loop around a fixed
    matrix product (a stand-in for the real work spans wrap — an empty
    span body would measure nothing but the recorder itself), with
    aggregate telemetry force-enabled (overriding the harness's
    disabled timed repeats: the *enabled* hot path is the thing being
    measured).  The events arm additionally installs a flight-recorder
    ring buffer, so the median wall-time ratio between the two arms is
    the event-capture overhead — the flight-recorder contract keeps it
    under a few percent; it also records
    ``telemetry.events.captured`` — a deterministic function of the
    loop shape — as a strict counter gate.
    """
    from .. import telemetry

    rng = np.random.default_rng(0)
    left = rng.normal(size=(dim, dim))
    right = rng.normal(size=(dim, dim))

    def loop():
        for _ in range(spans):
            with telemetry.span("telemetry.unit.outer"):
                with telemetry.span("telemetry.unit.mid"):
                    with telemetry.span("telemetry.unit.inner"):
                        np.dot(left, right)

    if not events:
        def run():
            with telemetry.enabled(True):
                loop()

        return run

    def run():
        # capture_events (not enable/disable_events) so an outer
        # flight recording — e.g. `repro trace -- bench run` — is
        # restored rather than clobbered when this arm finishes.
        with telemetry.capture_events() as log:
            loop()
        with telemetry.enabled(True):
            telemetry.counter("telemetry.events.captured",
                              len(log) + log.dropped)

    return run


@register("telemetry.spans",
          "triple-nested spans around a fixed matrix product, aggregate "
          "registry only (the flight-recorder overhead baseline)",
          quick={"spans": 300, "dim": 192, "events": False},
          full={"spans": 2_000, "dim": 256, "events": False})
def _build_telemetry_spans(spans: int, dim: int, events: bool):
    return _build_telemetry_loop(spans, dim, events)


@register("telemetry.events",
          "same span loop with flight-recorder event capture; the wall "
          "ratio vs telemetry.spans is the capture overhead and "
          "telemetry.events.captured is a strict deterministic gate",
          quick={"spans": 300, "dim": 192, "events": True},
          full={"spans": 2_000, "dim": 256, "events": True})
def _build_telemetry_events(spans: int, dim: int, events: bool):
    return _build_telemetry_loop(spans, dim, events)


@register("ppr.incremental_vs_scratch",
          "incremental PPR maintenance after a small interaction delta "
          "vs a from-scratch push on the updated graph; "
          "ppr.incremental_pushes is the incremental arm's share of "
          "ppr.push_ops and must stay strictly below the scratch share",
          quick={"scale": 1.0, "epsilon": 1e-4, "num_new": 6},
          full={"scale": 2.0, "epsilon": 1e-4, "num_new": 12})
def _build_ppr_incremental(scale: float, epsilon: float, num_new: int):
    from ..ppr import forward_push_batch, incremental_push

    _, split, ckg = _ckg(scale)
    users = list(range(ckg.num_users))
    base = forward_push_batch(ckg, users, epsilon=epsilon,
                              keep_residuals=True)
    # A deterministic batch of unseen (user, item) pairs: walk the grid
    # in a fixed diagonal order and keep the first num_new fresh ones.
    pairs = []
    for step in range(ckg.num_users * ckg.num_items):
        user = step % ckg.num_users
        item = (step * 7 + step // ckg.num_users) % ckg.num_items
        if item not in split.train.positives(user) \
                and (user, item) not in pairs:
            pairs.append((user, item))
            if len(pairs) == num_new:
                break

    def run():
        # Both arms on every repeat: maintain incrementally, then solve
        # the updated graph from scratch.  Their per-arm costs land in
        # ppr.incremental_pushes and (summed) ppr.push_ops.
        result = incremental_push(ckg, base, pairs)
        forward_push_batch(result.ckg, users, epsilon=epsilon,
                           keep_residuals=True)

    return run


@register("ppr.scale_mmap",
          "out-of-core capacity probe: sharded forward-push precompute + "
          "mmap-backed eval at 100x the default user population (1M-user "
          "recipe in docs/storage.md); storage.shards_written and "
          "ppr.push_ops gate strictly, proc.peak_rss_bytes is the "
          "advisory out-of-core proof (the dense equivalent needs "
          "users x nodes x 8 bytes of RAM)",
          quick={"num_users": 20_000, "num_items": 400, "chunk_users": 256,
                 "epsilon": 2e-3, "top_m": 64, "sample_users": 64},
          full={"num_users": 200_000, "num_items": 2_000,
                "chunk_users": 1_024, "epsilon": 2e-3, "top_m": 64,
                "sample_users": 256},
          default=False)
def _build_ppr_scale_mmap(num_users: int, num_items: int, chunk_users: int,
                          epsilon: float, top_m: int, sample_users: int):
    import atexit
    import os
    import resource
    import shutil
    import tempfile

    from .. import telemetry
    from ..data import traditional_split
    from ..data.synthetic import SyntheticConfig, generate
    from ..ppr import forward_push_sharded

    dataset = generate(SyntheticConfig(
        name="scale_mmap", num_users=num_users, num_items=num_items,
        stream=True, seed=0))
    split = traditional_split(dataset, seed=0)
    ckg = dataset.build_ckg(split.train)
    directory = tempfile.mkdtemp(prefix="repro_bench_scale_")
    atexit.register(shutil.rmtree, directory, ignore_errors=True)

    rng = np.random.default_rng(0)
    sample = np.sort(rng.choice(ckg.num_users,
                                size=min(sample_users, ckg.num_users),
                                replace=False))
    probe_nodes = rng.integers(0, ckg.num_nodes, size=sample.size)

    def run():
        scores = forward_push_sharded(
            ckg, range(ckg.num_users), os.path.join(directory, "scores"),
            epsilon=epsilon, top_m=top_m, chunk_users=chunk_users,
            overwrite=True)
        # Eval off the mmap'd shards: row selection (the trainer/server
        # gather) plus point lookups (the pruner gather).  Row index ==
        # user id because every user was solved in order.
        scores.select(sample.tolist())
        scores.lookup(sample, probe_nodes)
        telemetry.gauge(
            "proc.peak_rss_bytes",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)

    return run


@register("serve.qps",
          "batched top-K /recommend queries against a prepared "
          "RecommendationService: a cold pass then a warm repeat per "
          "run, so serve.cache_hits is a strict deterministic gate",
          quick={"scale": 0.3, "dim": 16, "depth": 2, "k": 10,
                 "num_users": 24},
          full={"scale": 1.0, "dim": 32, "depth": 3, "k": 20,
                "num_users": 64})
def _build_serve_qps(scale: float, dim: int, depth: int, k: int,
                     num_users: int):
    from ..core import KUCNetConfig, KUCNetRecommender, TrainConfig
    from ..data import PRESETS, traditional_split
    from ..serve import RecommendationService, ServeConfig

    dataset = PRESETS[_DATASET](seed=0, scale=scale)
    split = traditional_split(dataset, seed=0)
    model = KUCNetRecommender(
        KUCNetConfig(dim=dim, depth=depth, seed=0),
        TrainConfig(epochs=1, batch_users=16, k=k, seed=0,
                    ppr_method="push"))
    model.fit(split)
    service = RecommendationService.from_recommender(
        model, split, ServeConfig(top_k=20))
    users = list(range(min(num_users, service.ckg.num_users)))

    def run():
        # Start cold every repeat so the hit/miss counter profile is
        # run-invariant: one scoring pass, then one all-hits pass.
        service.reset_cache()
        service.recommend(users)
        service.recommend(users)

    return run


@register("eval.rank",
          "all-ranking evaluation of a trained model (recall/ndcg@20)",
          quick={"scale": 0.3, "dim": 16, "depth": 2, "k": 10,
                 "max_users": 32},
          full={"scale": 1.0, "dim": 32, "depth": 3, "k": 20,
                "max_users": 128})
def _build_eval_rank(scale: float, dim: int, depth: int, k: int,
                     max_users: int):
    from ..core import KUCNetConfig, KUCNetRecommender, TrainConfig
    from ..data import PRESETS, traditional_split
    from ..eval import evaluate

    dataset = PRESETS[_DATASET](seed=0, scale=scale)
    split = traditional_split(dataset, seed=0)
    model = KUCNetRecommender(
        KUCNetConfig(dim=dim, depth=depth, seed=0),
        TrainConfig(epochs=1, batch_users=16, k=k, seed=0))
    model.fit(split)

    def run():
        evaluate(model, split, max_users=max_users, seed=0)

    return run

"""Training and inference driver for KUCNet (§IV-D of the paper).

:class:`KUCNetRecommender` packages the full pipeline:

1. build the CKG over the *training* interactions;
2. precompute PPR scores for every user (the one-time preprocessing of
   Table VI);
3. optimize the BPR loss (Eq. 14) with Adam over (user, i+, i-) triplets,
   evaluating whole user batches on the part of their shared pruned
   user-centric computation graph that reaches a sampled item;
4. score all items per user for the all-ranking evaluation.

Variants (Table IX / Fig. 6) are selected by configuration:

* ``sampler="random"`` → KUCNet-random;
* ``use_attention=False`` → KUCNet-w.o.-Attn;
* ``k=None`` → KUCNet-w.o.-PPR (no pruning).
"""

from __future__ import annotations

import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..autodiff import Adam, bpr_loss, no_tape
from ..data import Split
from ..engine import (EarlyStopping, Engine, EpochCallback, EpochStats,
                      History, ProgressLogger, TelemetryHook)
from ..graph import CollaborativeKG
from ..health import HealthConfig, HealthHook, HealthMonitor, check_ppr_residual
from ..parallel import chunk_sequence, resolve_workers, run_parallel
from ..ppr import (PPRScoreLike, concat_sparse_scores, forward_push_batch,
                   forward_push_sharded, personalized_pagerank_batch,
                   personalized_pagerank_mmap)
from ..sampling import ComputationGraph, build_user_centric_graph
from .model import KUCNet, KUCNetConfig, Propagation

#: rejection-resampling attempts per batch before the negative sampler
#: switches to exact set-difference sampling (see :meth:`_sample_pairs`)
MAX_NEGATIVE_RESAMPLES = 32


@dataclass
class TrainConfig:
    """Optimization hyper-parameters (§V-A3 search ranges)."""

    epochs: int = 12
    batch_users: int = 24
    #: (i+, i-) pairs sampled per user per epoch
    pairs_per_user: int = 4
    learning_rate: float = 5e-3
    weight_decay: float = 1e-5
    #: PPR top-K edge budget per head node; ``None`` disables pruning.
    #: A sequence of per-layer budgets (length ``depth``) selects an
    #: AdaProp-style adaptive propagation schedule (the paper's [40]).
    k: Optional[int] = 20
    sampler: str = "ppr"
    ppr_alpha: float = 0.15
    ppr_iterations: int = 20
    #: PPR solver backend: ``"power"`` is the paper's dense Eq. 13
    #: iteration (O(U x N) score storage); ``"push"`` is sparse
    #: Andersen-Chung-Lang forward push with top-M storage (O(U x M),
    #: sublinear compute per user) — see ``docs/performance.md``.
    ppr_method: str = "power"
    #: forward-push residual threshold (``ppr_method="push"`` only);
    #: per-node score underestimation is at most ``epsilon * deg(node)``.
    ppr_epsilon: float = 1e-4
    #: retained score entries per user (``ppr_method="push"`` only)
    ppr_top_m: int = 256
    #: users processed per preprocessing chunk (bounds peak temporary
    #: memory for both backends)
    ppr_chunk_users: int = 64
    #: score/graph storage backend: ``"ram"`` keeps today's in-memory
    #: arrays; ``"mmap"`` writes per-chunk ``.npy`` shards (push) or a
    #: dense ``.npy`` memmap (power) plus an npy-mmap CKG, and serves
    #: reads off disk — bitwise-identical results, bounded RSS (see
    #: ``docs/storage.md``).  ``None`` defers to ``$REPRO_PPR_STORE``.
    ppr_store: Optional[str] = None
    #: directory for the mmap tier's files.  ``None`` uses a fresh
    #: tempdir reclaimed when the recommender is garbage-collected; an
    #: explicit path is created if missing and left behind.
    ppr_store_dir: Optional[str] = None
    #: rank pruned edges by ``r_u[v] / deg(v)`` instead of raw PPR mass
    #: (the pruner divides at lookup; the score store stays as solved).
    #: On the symmetrized CKG, walk reversibility makes the
    #: degree-normalized score proportional to the probability that a
    #: walk *from v* reaches u — i.e. the "importance of other nodes to
    #: the target node" the paper asks PPR for (§II-A) — whereas raw
    #: mass is confounded by global popularity.  Markedly better in the
    #: new-item setting (see EXPERIMENTS.md).
    ppr_degree_normalized: bool = True
    #: worker processes for per-user-chunk fan-out (PPR precompute).
    #: ``None`` defers to ``$REPRO_NUM_WORKERS``; 1 is the serial fast
    #: path with zero pool overhead.  Results are bitwise-identical
    #: either way (see ``docs/performance.md``).
    num_workers: Optional[int] = None
    seed: int = 0
    verbose: bool = False
    #: stop early when the epoch loss has not improved for this many
    #: epochs (``None`` disables).  The paper selects hyper-parameters by
    #: training loss with a 30-epoch cap (§V-A3); this implements the
    #: corresponding loss-plateau stopping rule.
    patience: Optional[int] = None
    #: minimum relative loss improvement that resets the patience counter
    min_improvement: float = 1e-3
    #: training-health monitoring (:mod:`repro.health`): ``None`` is off;
    #: ``"warn"`` surfaces alerts as RuntimeWarnings, ``"raise"``
    #: escalates fatal alerts (NaN/Inf loss or gradients) to
    #: :class:`~repro.health.HealthError`.  When on, a
    #: :class:`~repro.health.HealthHook` rides the engine loop and the
    #: monitor lands on ``self.health_monitor`` after ``fit``.
    health_policy: Optional[str] = None


class KUCNetRecommender:
    """End-to-end KUCNet: ``fit`` on a split, then ``score_users``.

    Parameters
    ----------
    model_config / train_config:
        Hyper-parameters; defaults follow the paper's common settings
        (L=3, PPR pruning, Adam + BPR).
    """

    def __init__(self, model_config: Optional[KUCNetConfig] = None,
                 train_config: Optional[TrainConfig] = None):
        self.model_config = model_config or KUCNetConfig()
        self.train_config = train_config or TrainConfig()
        self.model: Optional[KUCNet] = None
        self.ckg: Optional[CollaborativeKG] = None
        #: dense ``(num_users, num_nodes)`` ndarray (``ppr_method="power"``)
        #: or :class:`~repro.ppr.SparsePPRScores` (``"push"``), exactly
        #: as the solver wrote it
        self.ppr_scores: Optional[PPRScoreLike] = None
        self.optimizer: Optional[Adam] = None
        #: populated when ``train_config.health_policy`` is set
        self.health_monitor: Optional[HealthMonitor] = None
        self.history: List[EpochStats] = []
        self.ppr_seconds: float = 0.0
        self._graph_cache: "OrderedDict[Tuple[int, ...], ComputationGraph]" = \
            OrderedDict()
        #: LRU bound: the batch count of the last planned epoch
        self._graph_cache_entries: int = 1
        self.graph_cache_hits: int = 0
        self.graph_cache_misses: int = 0
        self._rng = np.random.default_rng(self.train_config.seed)

    # ------------------------------------------------------------------
    def prepare(self, split: Split) -> None:
        """Build the CKG and PPR scores without training (preprocessing)."""
        if (self.health_monitor is None
                and self.train_config.health_policy is not None):
            self.health_monitor = HealthMonitor(
                HealthConfig(policy=self.train_config.health_policy))
        self.ckg = split.dataset.build_ckg(split.train)
        self._setup_store()
        with telemetry.span("ppr.precompute") as ppr_span:
            self.ppr_scores = self._compute_ppr_scores()
        self.ppr_seconds = ppr_span.elapsed
        residual = getattr(self.ppr_scores, "residual", None)
        if self.health_monitor is not None and residual is not None:
            check_ppr_residual(residual, self.ckg.num_users,
                               self.health_monitor)
        self.model = KUCNet(self.ckg.num_relations, self.model_config)
        self._graph_cache.clear()
        self._graph_cache_entries = 1
        self.graph_cache_hits = 0
        self.graph_cache_misses = 0
        self._split = split
        self._train_item_pool = np.unique(split.train.items)
        # Per-user sorted positives, cached once: the pair sampler draws
        # from these every batch of every epoch.
        self._user_positives = {
            int(user): np.asarray(sorted(split.train.positives(user)),
                                  dtype=np.int64)
            for user in split.train.users_with_interactions()
        }

    def _setup_store(self) -> None:
        """Resolve the storage backend; under mmap, move the CKG to disk.

        The saved-then-reopened CKG holds the exact arrays of the
        in-RAM graph (CSR order included), so everything downstream is
        bitwise-unchanged — but edge arrays are served from memory maps
        and workers pickle the graph by path.  Auto-created store
        directories are reclaimed when the recommender is collected.
        """
        from ..storage import resolve_store, resolve_store_dir
        self.ppr_store = resolve_store(self.train_config.ppr_store)
        self.ppr_store_dir: Optional[str] = None
        if self.ppr_store != "mmap":
            return
        self.ppr_store_dir = resolve_store_dir(self.train_config.ppr_store_dir)
        if not self.train_config.ppr_store_dir:
            import shutil
            import weakref
            weakref.finalize(self, shutil.rmtree, self.ppr_store_dir,
                             ignore_errors=True)
        ckg_dir = os.path.join(self.ppr_store_dir, "ckg")
        self.ckg.save_npy(ckg_dir)
        from ..graph import load_npy
        self.ckg = load_npy(ckg_dir)

    def _compute_ppr_scores(self) -> PPRScoreLike:
        """One-time PPR preprocessing (Table VI), in bounded-memory chunks.

        ``ppr_method="power"`` runs the dense Eq. 13 iteration per user
        chunk (peak temporary memory O(chunk x N) instead of O(U x N) on
        top of the dense result); ``"push"`` runs sparse forward push,
        whose output stays O(U x M).  Either way ``ppr.score_bytes``
        records the resident score footprint.

        With ``num_workers > 1`` the per-chunk solves fan out across a
        process pool (:mod:`repro.parallel`).  Chunk boundaries are the
        same ``ppr_chunk_users`` the serial loop uses and chunks are
        solved independently on either path, so the assembled scores —
        and the merged ``ppr.*`` counters — are bitwise-identical to
        the serial run.
        """
        config = self.train_config
        if config.ppr_method not in ("power", "push"):
            raise ValueError(f"unknown ppr_method {config.ppr_method!r}")
        users = np.arange(self.ckg.num_users)
        chunk = max(1, int(config.ppr_chunk_users))
        workers = resolve_workers(config.num_workers)
        chunks = chunk_sequence(users, chunk)
        mmap = self.ppr_store == "mmap"
        if config.ppr_method == "push":
            if workers > 1 and len(chunks) > 1:
                parts = run_parallel(
                    _ppr_push_chunk, chunks,
                    context=(self.ckg, config.ppr_alpha, config.ppr_epsilon,
                             config.ppr_top_m),
                    num_workers=workers, label="ppr.push")
                if mmap:
                    from ..storage import ShardWriter
                    writer = ShardWriter(
                        os.path.join(self.ppr_store_dir, "scores"),
                        self.ckg.num_nodes, overwrite=True)
                    for part in parts:
                        writer.append(part)
                    scores = writer.finalize(alpha=config.ppr_alpha,
                                             epsilon=config.ppr_epsilon)
                else:
                    scores = concat_sparse_scores(parts)
                # Per-chunk gauge writes are chunk-local; restate the
                # whole-population values the serial call would record.
                telemetry.gauge("ppr.residual_mass", scores.residual)
                telemetry.gauge("ppr.score_bytes", scores.nbytes)
                return scores
            if mmap:
                return forward_push_sharded(
                    self.ckg, users,
                    os.path.join(self.ppr_store_dir, "scores"),
                    alpha=config.ppr_alpha, epsilon=config.ppr_epsilon,
                    top_m=config.ppr_top_m, chunk_users=chunk,
                    overwrite=True)
            return forward_push_batch(
                self.ckg, users, alpha=config.ppr_alpha,
                epsilon=config.ppr_epsilon, top_m=config.ppr_top_m,
                chunk_users=chunk)
        if mmap and not (workers > 1 and len(chunks) > 1):
            return personalized_pagerank_mmap(
                self.ckg, users,
                os.path.join(self.ppr_store_dir, "power_scores.npy"),
                alpha=config.ppr_alpha, iterations=config.ppr_iterations,
                chunk_users=chunk)
        adjacency = self.ckg.normalized_adjacency()
        if mmap:
            out_path = os.path.join(self.ppr_store_dir, "power_scores.npy")
            dense = np.lib.format.open_memmap(
                out_path, mode="w+", dtype=np.float64,
                shape=(users.size, self.ckg.num_nodes))
        else:
            dense = np.empty((users.size, self.ckg.num_nodes))
        if workers > 1 and len(chunks) > 1:
            parts = run_parallel(
                _ppr_power_chunk, chunks,
                context=(self.ckg, adjacency, config.ppr_alpha,
                         config.ppr_iterations),
                num_workers=workers, label="ppr.power")
            offset = 0
            for piece, part in zip(chunks, parts):
                dense[offset:offset + piece.size] = part
                offset += piece.size
        else:
            for start in range(0, users.size, chunk):
                part = personalized_pagerank_batch(
                    self.ckg, users[start:start + chunk],
                    alpha=config.ppr_alpha, iterations=config.ppr_iterations,
                    adjacency=adjacency)
                dense[start:start + chunk] = part.scores
        if mmap:
            dense.flush()
            del dense
            dense = np.load(out_path, mmap_mode="r")
        telemetry.gauge("ppr.score_bytes", dense.nbytes)
        return dense

    def _ppr_rows(self, users: Sequence[int]) -> PPRScoreLike:
        """Score rows for ``users`` in input order, on either backend."""
        if isinstance(self.ppr_scores, np.ndarray):
            return self.ppr_scores[list(users)]
        return self.ppr_scores.select(users)

    def fit(self, split: Split,
            callback: Optional[Callable[[EpochStats], None]] = None) -> "KUCNetRecommender":
        """Train with BPR (Eq. 14); ``callback`` fires after each epoch."""
        with telemetry.span("train.fit"):
            return self._fit(split, callback)

    def _fit(self, split: Split,
             callback: Optional[Callable[[EpochStats], None]]) -> "KUCNetRecommender":
        self.prepare(split)
        config = self.train_config
        self.optimizer = self.make_optimizer()

        train_users = [user for user in split.train.users_with_interactions()]
        history = History()
        hooks = [TelemetryHook(), history]
        if self.health_monitor is not None:
            hooks.insert(1, HealthHook(self.health_monitor,
                                       module=self.model))
        if config.verbose:
            hooks.append(ProgressLogger())
        if callback is not None:
            hooks.append(EpochCallback(callback))
        if config.patience is not None:
            hooks.append(EarlyStopping(patience=config.patience,
                                       min_improvement=config.min_improvement))
        # Run-registry commit on fit end ($REPRO_RUNS_DIR, see
        # repro.runstore).  Imported lazily: runstore sits above bench,
        # which imports this module.  Appended after History so the
        # committed manifest sees the full epoch history.
        from ..runstore import (RunRecorderHook, active_store,
                                auto_commit_suppressed)
        if active_store() is not None and not auto_commit_suppressed():
            def _manifest() -> telemetry.RunManifest:
                metrics = {"epochs_run": len(history.stats)}
                if history.stats:
                    metrics["final_loss"] = float(history.stats[-1].loss)
                return telemetry.RunManifest(
                    run="train:kucnet", seed=config.seed, config=config,
                    dataset=split.dataset.statistics(), metrics=metrics)

            hooks.append(RunRecorderHook(
                _manifest, health_monitor=self.health_monitor))
        engine = Engine(self.optimizer, hooks=hooks)
        self.history = history.stats
        engine.fit(step=lambda users: self._train_step(users, split),
                   batches=lambda epoch: self._epoch_batches(train_users),
                   epochs=config.epochs)
        return self

    def make_optimizer(self) -> Adam:
        """Adam configured from the train config (shared with benches)."""
        if self.model is None:
            raise RuntimeError("call prepare(split) before make_optimizer()")
        return Adam(self.model.parameters(), lr=self.train_config.learning_rate,
                    weight_decay=self.train_config.weight_decay)

    def run_epoch(self, split: Split, optimizer: Adam,
                  train_users: Optional[Sequence[int]] = None
                  ) -> Tuple[float, float]:
        """Run one BPR training epoch; returns ``(mean_loss, seconds)``.

        Requires :meth:`prepare` to have been called (``fit`` does both).
        Exposed separately so benchmarks can time the steady-state epoch
        in isolation from the one-time CKG/PPR preprocessing.
        """
        if self.model is None:
            raise RuntimeError("call prepare(split) before run_epoch()")
        if train_users is None:
            train_users = list(split.train.users_with_interactions())
        engine = Engine(optimizer, hooks=[TelemetryHook()])
        stats = engine.run_epoch(
            step=lambda users: self._train_step(users, split),
            batches=lambda epoch: self._epoch_batches(train_users),
            epoch=0)
        return stats.loss, stats.seconds

    def _epoch_batches(self, train_users: Sequence[int]) -> List[Tuple[int, ...]]:
        """One epoch's user batches, permuted with the training RNG.

        Batches keep stable *membership* across epochs — only their
        order is shuffled.  Shuffling membership instead (one
        permutation over users per epoch) would make every epoch's
        batch tuples unique, so the per-batch graph cache of
        `_graph_for` would never hit and grow by one graph per batch
        per epoch, unbounded on long runs.  The cache is bounded by this
        epoch's batch count, so it holds every batch's graph into the
        next epoch.
        """
        config = self.train_config
        batches = [tuple(train_users[start:start + config.batch_users])
                   for start in range(0, len(train_users), config.batch_users)]
        self._graph_cache_entries = max(1, len(batches))
        order = self._rng.permutation(len(batches))
        return [batches[index] for index in order]

    def _train_step(self, users: Sequence[int], split: Split):
        """Loss for one user batch (the engine owns the optimizer cycle).

        The pairs are sampled first; the step then propagates only the
        batch graph's edges on a path to a last-layer row the BPR loss
        reads (:meth:`ComputationGraph.restrict_to_rows`).  Each read row
        sums the same messages in the same order as on the whole graph,
        so the loss keeps its bits wherever BLAS gives each edge's
        products the same bits in the shorter edge list (see
        ``docs/performance.md``).  ``_graph_for`` still draws before
        ``_sample_pairs`` and propagation draws nothing from
        ``self._rng``, so every random stream keeps its order.  A batch
        without pairs still propagates (no edges) before it returns
        ``None``, which keeps the dropout generators in step.
        ``train.support_edges`` counts the edges propagated.
        """
        graph = self._graph_for(tuple(users))
        self.model.train()
        with telemetry.span("train.forward"):
            slots, pos_nodes, neg_nodes = self._sample_pairs(users, split)
            rows = graph.rows_for_pairs(graph.depth,
                                        np.concatenate([slots, slots]),
                                        np.concatenate([pos_nodes, neg_nodes]))
            support = graph.restrict_to_rows(rows[rows >= 0])
            telemetry.counter("train.support_edges", support.total_edges())
            propagation = self.model.propagate(support)
            if slots.size == 0:
                return None
            pos_scores = self.model.pair_scores(propagation, slots, pos_nodes)
            neg_scores = self.model.pair_scores(propagation, slots, neg_nodes)
            loss = bpr_loss(pos_scores, neg_scores)
        telemetry.counter("train.pairs", slots.size)
        return loss

    def _sample_pairs(self, users: Sequence[int], split: Split):
        """Sample (slot, i+, i-) training triplets for a user batch.

        Negatives are drawn from the *training item pool* (items with at
        least one observed interaction), the standard BPR practice; items
        that only exist in the KG are never pushed down, which matters in
        the new-item setting (§V-C) where such items are the test set.
        """
        config = self.train_config
        if not hasattr(self, "_train_item_pool"):
            self._train_item_pool = np.unique(split.train.items)
        if not hasattr(self, "_user_positives"):
            self._user_positives = {}
        pool = self._train_item_pool
        slot_chunks: List[np.ndarray] = []
        pos_chunks: List[np.ndarray] = []
        neg_chunks: List[np.ndarray] = []
        for slot, user in enumerate(users):
            user_positives = self._user_positives.get(int(user))
            if user_positives is None:
                user_positives = np.asarray(sorted(split.train.positives(user)),
                                            dtype=np.int64)
                self._user_positives[int(user)] = user_positives
            if user_positives.size == 0:
                continue
            chosen = self._rng.choice(user_positives,
                                      size=config.pairs_per_user)
            negatives = pool[self._rng.integers(pool.size,
                                                size=config.pairs_per_user)]
            # Rejection-resample the (few) negatives that hit one of the
            # user's observed interactions; user_positives is sorted, so
            # membership is a binary search.  The attempt cap guards the
            # pathological user whose positives cover the whole pool —
            # unbounded resampling would never terminate there.
            collides = _in_sorted(negatives, user_positives)
            attempts = 0
            while collides.any() and attempts < MAX_NEGATIVE_RESAMPLES:
                negatives[collides] = pool[self._rng.integers(
                    pool.size, size=int(collides.sum()))]
                collides = _in_sorted(negatives, user_positives)
                attempts += 1
            if collides.any():
                candidates = np.setdiff1d(pool, user_positives)
                if candidates.size == 0:
                    telemetry.counter("train.sampler_exhausted")
                    if self.health_monitor is not None:
                        self.health_monitor.alert(
                            "sampler_exhausted", severity="fatal",
                            message=f"user {int(user)}: every pooled "
                                    "training item is a positive; no "
                                    "negatives exist — user skipped",
                            value=1.0, user=int(user))
                    else:
                        warnings.warn(
                            f"user {int(user)}: every pooled training item "
                            "is a positive; no negatives exist — skipping "
                            "the user", RuntimeWarning)
                    continue
                negatives[collides] = candidates[self._rng.integers(
                    candidates.size, size=int(collides.sum()))]
            slot_chunks.append(np.full(config.pairs_per_user, slot,
                                       dtype=np.int64))
            pos_chunks.append(chosen)
            neg_chunks.append(negatives)
        if not slot_chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        slots_array = np.concatenate(slot_chunks)
        pos_nodes = self.ckg.item_nodes[np.concatenate(pos_chunks)]
        neg_nodes = self.ckg.item_nodes[np.concatenate(neg_chunks)]
        return slots_array, pos_nodes, neg_nodes

    def _graph_for(self, users: Tuple[int, ...]) -> ComputationGraph:
        """Pruned user-centric computation graph, cached per user batch.

        Graphs are deterministic for the PPR sampler, so caching across
        epochs is exact; for the random sampler each call resamples.
        The cache is an LRU bounded by the batch count of the last epoch
        :meth:`_epoch_batches` planned (one entry before any); batch
        membership is stable across epochs, so from epoch 2 on every
        batch hits.  ``train.graph_cache_hits`` / ``..._misses`` record
        its behavior.  Cached graphs are never modified: each step
        propagates its own ``restrict_to_rows`` copy of one, which
        shares the node tables.
        """
        if self.train_config.sampler == "random":
            return build_user_centric_graph(
                self.ckg, list(users), depth=self.model_config.depth,
                k=self.train_config.k, sampler="random", rng=self._rng)
        cached = self._graph_cache.get(users)
        if cached is not None:
            self._graph_cache.move_to_end(users)
            self.graph_cache_hits += 1
            telemetry.counter("train.graph_cache_hits")
            return cached
        cached = build_user_centric_graph(
            self.ckg, list(users), depth=self.model_config.depth,
            ppr_scores=self._ppr_rows(users),
            k=self.train_config.k, sampler="ppr",
            degree_normalized=self.train_config.ppr_degree_normalized)
        self.graph_cache_misses += 1
        telemetry.counter("train.graph_cache_misses")
        self._graph_cache[users] = cached
        while len(self._graph_cache) > self._graph_cache_entries:
            self._graph_cache.popitem(last=False)
        return cached

    # ------------------------------------------------------------------
    def score_users(self, users: Sequence[int], k: Optional[int] = "default") -> np.ndarray:
        """All-item scores for ``users`` (rows align with input order).

        ``k`` overrides the pruning budget for this call: pass ``None``
        to score on unpruned user-centric graphs (the ``KUCNet-w.o.-PPR``
        inference mode of Fig. 6).  Records no autodiff tape.
        """
        if self.model is None:
            raise RuntimeError("fit() or prepare() must be called first")
        self.model.eval()
        with no_tape():
            propagation = self.propagate_users(users, k=k)
            return self.model.score_all_items(propagation,
                                              self.ckg.item_nodes)

    def propagate_users(self, users: Sequence[int],
                        k: Optional[int] = "default",
                        collect_attention: bool = False) -> Propagation:
        """Forward pass over the (pruned) user-centric graphs of ``users``.

        Pass ``collect_attention=True`` when the propagation feeds the
        explanation extractor — scoring paths leave it off and skip the
        per-edge attention copies.
        """
        users = list(users)
        if k == "default":
            k = self.train_config.k
        graph = build_user_centric_graph(
            self.ckg, users, depth=self.model_config.depth,
            ppr_scores=(self._ppr_rows(users)
                        if self.train_config.sampler == "ppr" and k
                        else None),
            k=k,
            sampler=self.train_config.sampler,
            rng=self._rng,
            degree_normalized=self.train_config.ppr_degree_normalized)
        return self.model.propagate(graph,
                                    collect_attention=collect_attention)

    def score_users_via_ui_subgraphs(self, users: Sequence[int],
                                     items: Optional[Sequence[int]] = None) -> np.ndarray:
        """Score by encoding each pair's own U-I computation graph.

        This is the direct (expensive) implementation the user-centric
        graph replaces — the ``KUCNet-UI`` bar of Fig. 6.  One propagation
        per (user, item) pair; like :meth:`score_users`, it records no
        autodiff tape, so Fig. 6 times both strategies alike.
        """
        from ..sampling import build_ui_computation_graph

        if self.model is None:
            raise RuntimeError("fit() or prepare() must be called first")
        self.model.eval()
        item_list = list(items) if items is not None else list(range(self.ckg.num_items))
        scores = np.zeros((len(users), self.ckg.num_items))
        with no_tape():
            for row, user in enumerate(users):
                for item in item_list:
                    graph = build_ui_computation_graph(
                        self.ckg, int(user), int(item), self.model_config.depth)
                    if graph.layers[-1].num_edges == 0:
                        continue
                    propagation = self.model.propagate(graph)
                    value = self.model.pair_scores(
                        propagation, np.zeros(1, dtype=np.int64),
                        np.asarray([self.ckg.item_node(int(item))]))
                    scores[row, item] = value.data[0]
        return scores

    def count_inference_edges(self, users: Sequence[int],
                              mode: str = "pruned") -> int:
        """Total computation-graph edges to score ``users`` (Fig. 6).

        ``mode``: ``"pruned"`` (KUCNet), ``"full"`` (KUCNet-w.o.-PPR), or
        ``"ui"`` (sum over per-pair U-I graphs).
        """
        from ..sampling import build_ui_computation_graph

        if mode == "ui":
            total = 0
            for user in users:
                for item in range(self.ckg.num_items):
                    graph = build_ui_computation_graph(
                        self.ckg, int(user), int(item), self.model_config.depth)
                    total += graph.total_edges()
            return total
        users = list(users)
        k = self.train_config.k if mode == "pruned" else None
        sampler = self.train_config.sampler
        graph = build_user_centric_graph(
            self.ckg, users, depth=self.model_config.depth,
            ppr_scores=(self._ppr_rows(users)
                        if k is not None and sampler == "ppr" else None),
            k=k, sampler=sampler, rng=self._rng,
            degree_normalized=self.train_config.ppr_degree_normalized)
        return graph.total_edges()

    @property
    def name(self) -> str:
        if not self.model_config.use_attention:
            return "KUCNet-w.o.-Attn"
        if self.train_config.k is None:
            return "KUCNet-w.o.-PPR"
        if self.train_config.sampler == "random":
            return "KUCNet-random"
        return "KUCNet"

    def num_parameters(self) -> int:
        if self.model is None:
            raise RuntimeError("fit() or prepare() must be called first")
        return self.model.num_parameters()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist trained weights and configuration to an ``.npz`` file.

        The graph-side state (CKG, PPR scores) is *not* stored — it is a
        deterministic function of the split, which :meth:`load` rebuilds.
        """
        if self.model is None:
            raise RuntimeError("fit() or prepare() must be called first")
        import dataclasses
        import json

        payload = {f"param::{name}": value
                   for name, value in self.model.state_dict().items()}
        payload["config::model"] = np.frombuffer(
            json.dumps(dataclasses.asdict(self.model_config)).encode(),
            dtype=np.uint8)
        train_dict = dataclasses.asdict(self.train_config)
        if isinstance(train_dict.get("k"), tuple):
            train_dict["k"] = list(train_dict["k"])
        payload["config::train"] = np.frombuffer(
            json.dumps(train_dict).encode(), dtype=np.uint8)
        # np.savez appends ".npz" when the path lacks it; normalize here
        # so save("model") and load("model") agree on the on-disk name.
        np.savez(_npz_path(path), **payload)

    @classmethod
    def load(cls, path: str, split: Split) -> "KUCNetRecommender":
        """Restore a recommender saved by :meth:`save`.

        ``split`` must be the (training) split the model was fit on; the
        CKG and PPR preprocessing are rebuilt from it deterministically.
        """
        import json

        if not os.path.exists(path):
            path = _npz_path(path)
        with np.load(path) as archive:
            model_config = json.loads(bytes(archive["config::model"].tobytes()))
            train_config = json.loads(bytes(archive["config::train"].tobytes()))
            # deleted TrainConfig fields, still in older saved models
            train_config.pop("graph_cache_entries", None)
            train_config.pop("ppr_tolerance", None)
            if isinstance(train_config.get("k"), list):
                train_config["k"] = tuple(train_config["k"])
            state = {key[len("param::"):]: archive[key]
                     for key in archive.files if key.startswith("param::")}
        recommender = cls(KUCNetConfig(**model_config),
                          TrainConfig(**train_config))
        recommender.prepare(split)
        recommender.model.load_state_dict(state)
        return recommender


def _in_sorted(values: np.ndarray, sorted_values: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_values)`` by binary search; the second
    array must be sorted ascending."""
    if sorted_values.size == 0:
        return np.zeros(values.shape, dtype=bool)
    at = np.searchsorted(sorted_values, values)
    np.minimum(at, sorted_values.size - 1, out=at)
    return sorted_values[at] == values


def _npz_path(path: str) -> str:
    """The on-disk name ``np.savez`` produces for ``path``."""
    return path if path.endswith(".npz") else path + ".npz"


# ----------------------------------------------------------------------
# Worker functions for the PPR precompute fan-out (module-level so the
# process pool can import them by reference; see repro.parallel)
# ----------------------------------------------------------------------

def _ppr_push_chunk(context, chunk: np.ndarray):
    """Forward-push one user chunk (same math as one serial chunk pass)."""
    ckg, alpha, epsilon, top_m = context
    return forward_push_batch(ckg, chunk, alpha=alpha, epsilon=epsilon,
                              top_m=top_m, chunk_users=chunk.size)


def _ppr_power_chunk(context, chunk: np.ndarray) -> np.ndarray:
    """Power-iterate one user chunk against the shared adjacency."""
    ckg, adjacency, alpha, iterations = context
    part = personalized_pagerank_batch(
        ckg, chunk, alpha=alpha, iterations=iterations,
        adjacency=adjacency)
    return part.scores

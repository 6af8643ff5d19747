"""Online recommendation service over precomputed KUCNet state.

The paper's pipeline is precompute-then-query: PPR scores prune the
user-centric subgraphs, the trained model scores items over them.  This
module packages that state behind :class:`RecommendationService` so
top-K queries are answered online, and keeps it *fresh* as interactions
arrive:

* **Queries** score cache misses through
  ``build_user_centric_graph`` → ``propagate`` → ``score_all_items``
  passes of at most ``config.chunk_users`` users, recording no autodiff
  tape, and rank with the same exclusion contract as offline
  evaluation (``eval.metrics.rank_items`` — training positives never
  resurface).
* **Results** land in a bounded per-user LRU cache; repeat queries for
  unchanged users are dictionary lookups (``serve.cache_hits``).
* **Updates** append interactions to the CKG and maintain the sparse
  PPR scores via :func:`~repro.ppr.incremental_push` — resuming the
  forward-push solve from stored residual mass instead of recomputing
  every user — then invalidate exactly the cache entries whose rows
  changed (``serve.cache_invalidations``).

The service keeps its *own* score structure.  The trainer's copy is raw
too (the pruner degree-normalizes at lookup), but it lacks what
maintenance needs: the per-user residuals the push invariant resumes
from, and, under the push solver, the entries past ``top_m`` per user.

All public methods are serialized by one re-entrant lock — correctness
first; the HTTP layer's threads stay consistent, and the lock is held
once per request, not per user.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry
from ..autodiff import no_tape
from ..core.trainer import KUCNetRecommender
from ..data.dataset import Split
from ..eval.metrics import rank_items
from ..graph import CollaborativeKG
from ..ppr import (SparsePPRScores, forward_push_batch,
                   forward_push_sharded, incremental_push)
from ..sampling import build_user_centric_graph


@dataclass
class ServeConfig:
    """Serving knobs (see ``docs/serving.md`` for tuning guidance)."""

    #: items ranked and cached per user; requests may ask for any k <=
    #: this (the cache stores one ranking per user, sliced per request)
    top_k: int = 20
    #: bound on the per-user LRU result cache (0 caches nothing)
    cache_entries: int = 1024
    #: users the service works on at once: rows per maintained part of an
    #: in-RAM score store (the rows incremental maintenance densifies at
    #: once) and cache misses per scoring pass (the users one graph holds)
    chunk_users: int = 64


class RecommendationService:
    """Batched top-K queries + incremental updates over a trained model.

    Build one via :meth:`from_recommender`; drive it with
    :meth:`recommend` and :meth:`add_interactions`.  State is swapped,
    never mutated: an update installs a new graph + score structure, so
    a concurrent reader of the old objects stays self-consistent.
    """

    def __init__(self, model, model_config, train_config,
                 ckg: CollaborativeKG, scores,
                 positives: Dict[int, Set[int]],
                 config: Optional[ServeConfig] = None):
        """``scores`` is either PPR score backend (see ``docs/storage.md``):
        in-RAM :class:`~repro.ppr.SparsePPRScores` or mmap-backed
        :class:`~repro.storage.ShardedPPRScores` — both must carry
        residuals for incremental maintenance."""
        if not scores.has_residuals:
            raise ValueError(
                "serving requires scores computed with keep_residuals=True")
        self.model = model
        self.model_config = model_config
        self.train_config = train_config
        self.ckg = ckg
        self.scores = scores
        self.config = config or ServeConfig()
        if self.config.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.config.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        if self.config.chunk_users < 1:
            raise ValueError("chunk_users must be >= 1")
        self._positives = {user: set(items)
                           for user, items in positives.items()}
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._lock = threading.RLock()
        self.interactions_added = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_recommender(cls, recommender: KUCNetRecommender, split: Split,
                         config: Optional[ServeConfig] = None,
                         store: Optional[str] = None,
                         store_dir: Optional[str] = None
                         ) -> "RecommendationService":
        """Wrap a prepared/fitted recommender for online serving.

        Recomputes the PPR state once with ``keep_residuals=True`` (the
        recommender's own copy keeps no residuals and, under push, only
        ``top_m`` entries per user — unusable for maintenance) using the
        recommender's solver parameters, and seeds the exclusion sets
        from the training split.

        ``store`` picks the score backend for the serving copy:
        ``"ram"`` (in-memory CSR) or ``"mmap"`` (on-disk shards queried
        through memory maps, maintained with targeted shard
        invalidation).  ``None`` follows the recommender's resolved
        backend, falling back to ``$REPRO_PPR_STORE``.  ``store_dir``
        places the shard files; the default is a fresh tempdir reclaimed
        when the service is collected.
        """
        if recommender.model is None or recommender.ckg is None:
            raise ValueError(
                "recommender must be prepared (or fitted) before serving")
        from ..storage import resolve_store, resolve_store_dir
        train_config = recommender.train_config
        if store is None:
            store = getattr(recommender, "ppr_store", None) \
                or train_config.ppr_store
        store = resolve_store(store)
        if store == "mmap":
            directory = resolve_store_dir(store_dir, prefix="repro_serve_")
            scores = forward_push_sharded(
                recommender.ckg, range(recommender.ckg.num_users),
                os.path.join(directory, "serve_scores"),
                alpha=train_config.ppr_alpha,
                epsilon=train_config.ppr_epsilon,
                chunk_users=train_config.ppr_chunk_users,
                keep_residuals=True, overwrite=True)
        else:
            scores = forward_push_batch(
                recommender.ckg, range(recommender.ckg.num_users),
                alpha=train_config.ppr_alpha,
                epsilon=train_config.ppr_epsilon,
                chunk_users=train_config.ppr_chunk_users,
                keep_residuals=True)
        positives = {int(user): set(split.train.positives(user))
                     for user in split.train.users_with_interactions()}
        service = cls(recommender.model, recommender.model_config,
                      train_config, recommender.ckg, scores, positives,
                      config=config)
        if store == "mmap" and not store_dir:
            import shutil
            import weakref
            weakref.finalize(service, shutil.rmtree, directory,
                             ignore_errors=True)
        return service

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def recommend(self, users: Sequence[int],
                  k: Optional[int] = None) -> List[np.ndarray]:
        """Top-``k`` item ids per user (excluding known positives).

        Cache misses are scored in model passes of at most
        ``config.chunk_users`` users; hits are served from the LRU.
        ``k`` defaults to ``config.top_k`` and cannot exceed it (the
        cache stores one ranking per user).
        """
        user_list = [int(u) for u in users]
        if not user_list:
            raise ValueError("users must be non-empty")
        k = self.config.top_k if k is None else int(k)
        if not 1 <= k <= self.config.top_k:
            raise ValueError(
                f"k must be in [1, {self.config.top_k}] "
                f"(config.top_k bounds the cached ranking), got {k}")
        with self._lock, telemetry.span("serve.recommend"):
            telemetry.counter("serve.requests", len(user_list))
            bad = [u for u in user_list
                   if not 0 <= u < self.ckg.num_users]
            if bad:
                raise ValueError(
                    f"user(s) {sorted(set(bad))} out of range for "
                    f"{self.ckg.num_users} users")
            # this request's rankings, kept apart from the cache, which
            # may evict some of them when the request outnumbers it
            rankings = {}
            misses = []
            for user in dict.fromkeys(user_list):
                if user in self._cache:
                    self._cache.move_to_end(user)
                    rankings[user] = self._cache[user]
                else:
                    misses.append(user)
            if rankings:
                telemetry.counter("serve.cache_hits", len(rankings))
            if misses:
                telemetry.counter("serve.cache_misses", len(misses))
                for user, ranking in zip(misses, self._score_batch(misses)):
                    self._cache[user] = rankings[user] = ranking
                while len(self._cache) > self.config.cache_entries:
                    self._cache.popitem(last=False)
            telemetry.gauge("serve.cache_entries", len(self._cache))
            return [rankings[user][:k].copy() for user in user_list]

    def _score_batch(self, users: List[int]) -> List[np.ndarray]:
        """Rank ``users``' items, ``config.chunk_users`` per model pass.

        A pass's graph, and the fused kernel's per-thread scratch, grow
        with its user count; the bound holds both however many users one
        request names.
        """
        self.model.eval()
        step = self.config.chunk_users
        rankings: List[np.ndarray] = []
        with no_tape():
            for start in range(0, len(users), step):
                rankings += self._rank_users(users[start:start + step])
        return rankings

    def _rank_users(self, users: List[int]) -> List[np.ndarray]:
        """One pruned-subgraph model pass ranking ``users``' items."""
        k_budget = self.train_config.k
        graph = build_user_centric_graph(
            self.ckg, users, depth=self.model_config.depth,
            ppr_scores=(self.scores.select(users)
                        if k_budget is not None else None),
            k=k_budget, sampler="ppr",
            degree_normalized=self.train_config.ppr_degree_normalized)
        propagation = self.model.propagate(graph)
        item_scores = self.model.score_all_items(propagation,
                                                 self.ckg.item_nodes)
        return [
            rank_items(item_scores[slot],
                       self._positives.get(user, set()),
                       self.config.top_k)
            for slot, user in enumerate(users)
        ]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_interactions(self,
                         pairs: Sequence[Tuple[int, int]]) -> Dict[str, int]:
        """Fold new ``(user, item)`` interactions into the live state.

        Already-known pairs (and within-batch duplicates) are skipped,
        fresh ones are appended to the CKG, the sparse PPR scores are
        maintained incrementally, and cache entries for every user whose
        score row changed — plus the interacting users, whose exclusion
        sets grew — are evicted.  Returns a summary dict.
        """
        requested = [(int(u), int(i)) for u, i in pairs]
        if not requested:
            raise ValueError("pairs must be non-empty")
        with self._lock, telemetry.span("serve.update"):
            fresh = []
            seen: Set[Tuple[int, int]] = set()
            for user, item in requested:
                if not 0 <= user < self.ckg.num_users:
                    raise ValueError(f"user {user} out of range")
                if not 0 <= item < self.ckg.num_items:
                    raise ValueError(f"item {item} out of range")
                if (user, item) in seen \
                        or item in self._positives.get(user, set()):
                    continue
                seen.add((user, item))
                fresh.append((user, item))
            if not fresh:
                return {"added": 0, "skipped": len(requested),
                        "changed_users": 0, "cache_invalidated": 0,
                        "push_ops": 0}

            result = incremental_push(self.ckg, self.scores, fresh,
                                      chunk_users=self.config.chunk_users)
            self.ckg = result.ckg
            self.scores = result.scores
            for user, item in fresh:
                self._positives.setdefault(user, set()).add(item)
            stale = set(result.changed_users.tolist())
            stale.update(user for user, _ in fresh)
            evicted = sum(1 for user in stale
                          if self._cache.pop(user, None) is not None)
            self.interactions_added += len(fresh)
            telemetry.counter("serve.interactions", len(fresh))
            telemetry.counter("serve.cache_invalidations", evicted)
            telemetry.gauge("serve.cache_entries", len(self._cache))
            return {"added": len(fresh),
                    "skipped": len(requested) - len(fresh),
                    "changed_users": len(stale),
                    "cache_invalidated": evicted,
                    "push_ops": int(result.push_ops)}

    # ------------------------------------------------------------------
    def reset_cache(self) -> None:
        """Drop every cached ranking (benchmarks use this per repeat)."""
        with self._lock:
            self._cache.clear()

    def cached_users(self) -> Set[int]:
        with self._lock:
            return set(self._cache)

    def stats(self) -> Dict[str, int]:
        """Liveness-probe summary (merged into ``/healthz``)."""
        with self._lock:
            return {
                "serve_users": int(self.ckg.num_users),
                "serve_items": int(self.ckg.num_items),
                "serve_edges": int(self.ckg.num_edges),
                "serve_cache_entries": len(self._cache),
                "serve_interactions_added": self.interactions_added,
            }

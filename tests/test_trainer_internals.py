"""Tests for KUCNetRecommender internals: caching, pools, PPR normalization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
from repro.core.trainer import MAX_NEGATIVE_RESAMPLES, _in_sorted
from repro.data import lastfm_like, new_item_split, traditional_split


@pytest.fixture(scope="module")
def split():
    return traditional_split(lastfm_like(seed=0, scale=0.25), seed=0)


class TestGraphCache:
    def test_ppr_sampler_caches_batch_graphs(self, split):
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=3, seed=0),
                                TrainConfig(epochs=1, k=10, seed=0))
        rec.prepare(split)
        first = rec._graph_for((0, 1, 2))
        second = rec._graph_for((0, 1, 2))
        assert first is second

    def test_random_sampler_does_not_cache(self, split):
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=3, seed=0),
                                TrainConfig(epochs=1, k=10, sampler="random",
                                            seed=0))
        rec.prepare(split)
        first = rec._graph_for((0, 1, 2))
        second = rec._graph_for((0, 1, 2))
        assert first is not second

    def test_cache_hits_across_epochs(self, split):
        """Regression: epoch batches must reuse cached graphs.

        Shuffling batch *membership* every epoch (the old behavior) made
        every batch tuple unique, so the cache never hit and grew by one
        graph per batch per epoch.  With stable membership, epoch 2
        onward is all hits and the miss count equals the batch count.
        """
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=2, seed=0),
                                TrainConfig(epochs=30, k=5, batch_users=24,
                                            seed=0))
        rec.fit(split)
        num_batches = rec.graph_cache_misses
        users = split.train.users_with_interactions()
        assert num_batches == int(np.ceil(len(users) / 24))
        assert rec.graph_cache_hits == 29 * num_batches
        assert len(rec._graph_cache) == num_batches

    def test_every_batch_hits_past_64_batches(self):
        """Regression: a fixed 64-entry bound evicted graphs an epoch of
        more than 64 batches still needed, so epoch 2 rebuilt most of
        them.  Bounded by the epoch's batch count, every batch hits."""
        split = traditional_split(lastfm_like(seed=0, scale=0.4), seed=0)
        num_batches = len(split.train.users_with_interactions())
        assert num_batches > 64
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=2, seed=0),
                                TrainConfig(epochs=2, k=5, batch_users=1,
                                            seed=0))
        rec.fit(split)
        assert rec.graph_cache_misses == num_batches
        assert rec.graph_cache_hits == num_batches
        assert len(rec._graph_cache) == num_batches

    def test_cache_respects_tight_bound(self, split):
        """The bound is the batch count of the last planned epoch: an
        epoch of two batches no earlier epoch built leaves exactly those
        two graphs cached."""
        rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=2, seed=0),
            TrainConfig(epochs=3, k=5, batch_users=24, seed=0))
        rec.fit(split)
        users = list(split.train.users_with_interactions())
        assert len(rec._graph_cache) == int(np.ceil(len(users) / 24))
        misses = rec.graph_cache_misses
        shifted = users[1:49]
        rec.run_epoch(split, rec.optimizer, train_users=shifted)
        assert rec.graph_cache_misses == misses + 2
        assert set(rec._graph_cache) == {tuple(shifted[:24]),
                                         tuple(shifted[24:])}

    def test_lru_evicts_oldest_entry(self, split):
        rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=2, seed=0),
            TrainConfig(epochs=1, k=5, batch_users=1, seed=0))
        rec.prepare(split)
        a, b, c = (int(user)
                   for user in split.train.users_with_interactions()[:3])
        # two one-user batches: the bound is 2, and both graphs cached
        rec.run_epoch(split, rec.make_optimizer(), train_users=[a, b])
        assert set(rec._graph_cache) == {(a,), (b,)}
        first = rec._graph_for((a,))  # refresh (a,) so (b,) is oldest
        rec._graph_for((c,))          # evicts (b,)
        assert set(rec._graph_cache) == {(a,), (c,)}
        assert rec._graph_for((a,)) is first

    def test_load_ignores_the_retired_bound(self, split, tmp_path):
        """A model saved while ``graph_cache_entries`` and
        ``ppr_tolerance`` were config fields still loads."""
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=2, seed=0),
                                TrainConfig(epochs=1, k=5, seed=0))
        rec.fit(split)
        path = str(tmp_path / "model.npz")
        rec.save(path)
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        train = json.loads(payload["config::train"].tobytes())
        train["graph_cache_entries"] = 64
        train["ppr_tolerance"] = 1e-9
        payload["config::train"] = np.frombuffer(
            json.dumps(train).encode(), dtype=np.uint8)
        np.savez(path, **payload)
        loaded = KUCNetRecommender.load(path, split)
        assert loaded.train_config == rec.train_config
        for name, value in rec.model.state_dict().items():
            assert np.array_equal(loaded.model.state_dict()[name], value)


class TestNegativePool:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-5, 40), max_size=12),
           members=st.lists(st.integers(-5, 40), max_size=12))
    def test_collision_helper_is_isin(self, values, members):
        values = np.asarray(values, dtype=np.int64)
        members = np.sort(np.asarray(members, dtype=np.int64))
        got = _in_sorted(values, members)
        assert got.dtype == bool
        assert np.array_equal(got, np.isin(values, members))

    def test_negatives_only_from_training_items(self):
        dataset = lastfm_like(seed=0, scale=0.25)
        split = new_item_split(dataset, fold=0, seed=0)
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=3, seed=0),
                                TrainConfig(epochs=1, k=10, pairs_per_user=8,
                                            seed=0))
        rec.prepare(split)
        train_nodes = set(rec.ckg.item_nodes[np.unique(split.train.items)])
        users = split.train.users_with_interactions()[:10]
        _, pos_nodes, neg_nodes = rec._sample_pairs(users, split)
        assert set(neg_nodes.tolist()) <= train_nodes
        assert set(pos_nodes.tolist()) <= train_nodes

    def test_saturated_pool_terminates_and_skips_user(self, split):
        """Regression: a user whose positives cover the whole training
        pool used to spin the rejection-resampling loop forever."""
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=2, seed=0),
                                TrainConfig(epochs=1, k=5, pairs_per_user=4,
                                            seed=0))
        rec.prepare(split)
        users = split.train.users_with_interactions()
        user = int(users[0])
        positives = np.asarray(sorted(split.train.positives(user)),
                               dtype=np.int64)
        rec._train_item_pool = positives      # every pooled item collides
        with pytest.warns(RuntimeWarning, match="skipping the user"):
            slots, pos_nodes, neg_nodes = rec._sample_pairs([user], split)
        assert slots.size == 0
        assert pos_nodes.size == 0 and neg_nodes.size == 0

    def test_single_escape_item_found_by_set_difference(self, split):
        """With exactly one valid negative in the pool, the capped loop
        plus set-difference fallback must find it instead of hanging."""
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=2, seed=0),
                                TrainConfig(epochs=1, k=5, pairs_per_user=4,
                                            seed=0))
        rec.prepare(split)
        users = split.train.users_with_interactions()
        user = int(users[0])
        positives = np.asarray(sorted(split.train.positives(user)),
                               dtype=np.int64)
        pool = np.unique(split.train.items)
        escapes = np.setdiff1d(pool, positives)
        assert escapes.size > 0
        escape = escapes[:1]
        rec._train_item_pool = np.sort(np.concatenate([positives, escape]))
        slots, _, neg_nodes = rec._sample_pairs([user], split)
        assert slots.size == 4
        assert (neg_nodes == rec.ckg.item_nodes[escape[0]]).all()

    def test_normal_users_never_reach_the_cap(self, split):
        """Sanity: the attempt cap is a pathology guard, not a behavior
        change — ordinary pools resolve well within it."""
        assert MAX_NEGATIVE_RESAMPLES >= 8
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=2, seed=0),
                                TrainConfig(epochs=1, k=5, pairs_per_user=4,
                                            seed=0))
        rec.prepare(split)
        users = split.train.users_with_interactions()[:16]
        slots, pos_nodes, neg_nodes = rec._sample_pairs(users, split)
        assert slots.size == 4 * len(users)
        for slot, user in enumerate(users):
            forbidden = rec.ckg.item_nodes[
                np.asarray(sorted(split.train.positives(user)))]
            assert not np.isin(neg_nodes[slots == slot], forbidden).any()


class TestPPRNormalization:
    def test_degree_normalization_changes_scores(self, split):
        """The flag changes the scores the pruner ranks by, and so the
        pruned graph, while the stored PPR scores stay as solved."""
        def prepared(degree_normalized):
            rec = KUCNetRecommender(
                KUCNetConfig(dim=8, depth=3, seed=0),
                TrainConfig(epochs=1, k=10, seed=0,
                            ppr_degree_normalized=degree_normalized))
            rec.prepare(split)
            return rec

        raw, normalized = prepared(False), prepared(True)
        assert np.array_equal(raw.ppr_scores, normalized.ppr_scores)
        users = (0, 1, 2)
        raw_graph = raw._graph_for(users)
        normalized_graph = normalized._graph_for(users)
        assert any(
            not np.array_equal(a.tails, b.tails)
            for a, b in zip(raw_graph.layers, normalized_graph.layers))

    def test_normalization_shifts_ranking_away_from_hubs(self, split):
        rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=3, seed=0),
            TrainConfig(epochs=1, k=10, seed=0, ppr_degree_normalized=False))
        rec.prepare(split)
        degrees = np.diff(rec.ckg.indptr).astype(float)
        raw_top = np.argsort(-rec.ppr_scores[0])[:20]
        norm_scores = rec.ppr_scores[0] / np.maximum(degrees, 1.0)
        norm_top = np.argsort(-norm_scores)[:20]
        # degree-normalized ranking prefers lower-degree nodes on average
        assert degrees[norm_top].mean() <= degrees[raw_top].mean()


class TestScoreOverrides:
    def test_score_users_k_override(self, split):
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=3, seed=0),
                                TrainConfig(epochs=1, k=5, seed=0))
        rec.fit(split)
        pruned = rec.score_users([0, 1])
        full = rec.score_users([0, 1], k=None)
        assert pruned.shape == full.shape
        # unpruned graphs reach at least as many items (non-zero scores)
        assert (full != 0).sum() >= (pruned != 0).sum()

    def test_count_inference_edges_ordering(self, split):
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=3, seed=0),
                                TrainConfig(epochs=1, k=5, seed=0))
        rec.prepare(split)
        users = [0, 1]
        pruned = rec.count_inference_edges(users, mode="pruned")
        full = rec.count_inference_edges(users, mode="full")
        ui = rec.count_inference_edges(users, mode="ui")
        assert pruned <= full
        assert full < ui

    def test_count_inference_edges_respects_random_sampler(self, split):
        """Regression: the pruned-mode edge count always used the PPR
        sampler (a dead ternary), so KUCNet-random's Fig. 6 bar measured
        the wrong model.  The random sampler draws from ``self._rng``;
        the PPR sampler never touches it — rng-state consumption is
        therefore an exact probe for which sampler actually ran."""
        random_rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=3, seed=0),
            TrainConfig(epochs=1, k=5, sampler="random", seed=0))
        random_rec.prepare(split)
        before = random_rec._rng.bit_generator.state
        random_rec.count_inference_edges([0, 1], mode="pruned")
        assert random_rec._rng.bit_generator.state != before

        ppr_rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=3, seed=0),
                                    TrainConfig(epochs=1, k=5, seed=0))
        ppr_rec.prepare(split)
        before = ppr_rec._rng.bit_generator.state
        ppr_rec.count_inference_edges([0, 1], mode="pruned")
        assert ppr_rec._rng.bit_generator.state == before

    def test_count_inference_edges_random_sampler_varies(self, split):
        rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=3, seed=0),
            TrainConfig(epochs=1, k=5, sampler="random", seed=0))
        rec.prepare(split)
        counts = {rec.count_inference_edges([0, 1], mode="pruned")
                  for _ in range(5)}
        assert len(counts) > 1

    def test_ui_scoring_matches_for_reachable_items(self, split):
        """Per-pair U-I scoring must agree with user-centric scoring when
        no pruning is applied (Proposition 1 at the model level)."""
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=3, seed=0),
                                TrainConfig(epochs=1, k=None, seed=0))
        rec.fit(split)
        user = 0
        centric = rec.score_users([user], k=None)[0]
        items = list(range(8))
        ui = rec.score_users_via_ui_subgraphs([user], items=items)[0]
        for item in items:
            assert ui[item] == pytest.approx(centric[item], abs=1e-8)

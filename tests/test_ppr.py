"""Tests for Personalized PageRank (Eq. 13) and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry as tm
from repro.data import lastfm_like, traditional_split
from repro.graph import CollaborativeKG, KnowledgeGraph, UserItemGraph
from repro.ppr import (personalized_pagerank, personalized_pagerank_batch,
                       top_k_items_by_ppr)

from .reference_ops import reference_personalized_pagerank_batch


@pytest.fixture
def ckg():
    ui = UserItemGraph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)])
    kg = KnowledgeGraph(6, 2, [(0, 0, 4), (1, 0, 4), (2, 1, 5), (3, 1, 5)])
    return CollaborativeKG.build(ui, kg)


class TestPPR:
    def test_scores_are_probability_distribution(self, ckg):
        scores = personalized_pagerank(ckg, 0)
        assert scores.shape == (ckg.num_nodes,)
        assert np.all(scores >= 0)
        # Every node here has out-edges, so mass is conserved.
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)

    def test_restart_node_has_high_mass(self, ckg):
        scores = personalized_pagerank(ckg, 0)
        assert scores[0] == scores.max()
        assert scores[0] >= 0.15  # at least the restart mass

    def test_closer_nodes_score_higher(self, ckg):
        scores = personalized_pagerank(ckg, 0)
        interacted = ckg.item_node(0)
        distant_user = ckg.user_node(2)
        assert scores[interacted] > scores[distant_user]

    def test_batch_matches_single(self, ckg):
        batch = personalized_pagerank_batch(ckg, [0, 1, 2])
        for user in (0, 1, 2):
            single = personalized_pagerank(ckg, user)
            assert np.allclose(batch.for_user(user), single)

    def test_for_user_unknown_raises(self, ckg):
        batch = personalized_pagerank_batch(ckg, [0])
        assert batch.has_user(0)
        assert not batch.has_user(2)
        with pytest.raises(KeyError):
            batch.for_user(2)

    def test_more_iterations_converge(self, ckg):
        coarse = personalized_pagerank(ckg, 0, iterations=2)
        fine = personalized_pagerank(ckg, 0, iterations=50)
        finer = personalized_pagerank(ckg, 0, iterations=100)
        assert np.abs(finer - fine).max() < np.abs(fine - coarse).max() + 1e-12

    def test_residual_reported(self, ckg):
        result = personalized_pagerank_batch(ckg, [0], iterations=100)
        assert result.residual < 1e-6

    def test_early_stop_with_tolerance(self, ckg):
        result = personalized_pagerank_batch(ckg, [0], iterations=500,
                                             tolerance=1e-10)
        assert result.residual < 1e-10

    def test_alpha_validation(self, ckg):
        with pytest.raises(ValueError):
            personalized_pagerank(ckg, 0, alpha=0.0)
        with pytest.raises(ValueError):
            personalized_pagerank(ckg, 0, alpha=1.5)

    def test_iterations_validation(self, ckg):
        with pytest.raises(ValueError):
            personalized_pagerank(ckg, 0, iterations=0)

    def test_user_range_validation(self, ckg):
        with pytest.raises(ValueError):
            personalized_pagerank(ckg, 99)
        with pytest.raises(ValueError):
            personalized_pagerank_batch(ckg, [])

    def test_precomputed_adjacency_matches(self, ckg):
        adjacency = ckg.normalized_adjacency()
        a = personalized_pagerank(ckg, 1)
        b = personalized_pagerank(ckg, 1, adjacency=adjacency)
        assert np.allclose(a, b)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_mass_conserved_for_any_alpha(self, alpha):
        ui = UserItemGraph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)])
        kg = KnowledgeGraph(6, 2, [(0, 0, 4), (1, 0, 4), (2, 1, 5), (3, 1, 5)])
        graph = CollaborativeKG.build(ui, kg)
        scores = personalized_pagerank(graph, 0, alpha=alpha)
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(scores >= 0)


class TestPowerIterationOracle:
    """The sweep adds the restart mass at the restart cells only and takes
    the max-norm update only where it is read; the oracle adds the dense
    restart matrix and takes it every sweep.  Bitwise equal either way."""

    @pytest.fixture(scope="class")
    def dataset_ckg(self):
        split = traditional_split(lastfm_like(seed=0, scale=0.25), seed=0)
        return split.dataset.build_ckg(split.train)

    @staticmethod
    def _solve(solver, ckg, users, **kwargs):
        tm.reset()
        with tm.enabled():
            result = solver(ckg, users, **kwargs)
        counters = tm.get_registry().snapshot()["counters"]
        tm.reset()
        return result, counters["ppr.sweeps"]["total"]

    @pytest.mark.parametrize("users,iterations,tolerance", [
        (list(range(24)), 20, 0.0),
        (list(range(24)), 80, 1e-6),
        ([5], 20, 0.0),
        ([5], 40, 1e-5),
        ([3, 3, 0], 1, 0.0),
        ([1, 2], 8, 0.5),
    ])
    def test_bitwise_equal_to_oracle(self, dataset_ckg, users, iterations,
                                     tolerance):
        ours, our_sweeps = self._solve(
            personalized_pagerank_batch, dataset_ckg, users,
            iterations=iterations, tolerance=tolerance)
        theirs, their_sweeps = self._solve(
            reference_personalized_pagerank_batch, dataset_ckg, users,
            iterations=iterations, tolerance=tolerance)
        assert ours.scores.tobytes() == theirs.scores.tobytes()
        assert ours.residual == theirs.residual
        assert our_sweeps == their_sweeps
        if tolerance > 0.0:
            assert our_sweeps < iterations


class TestTopKItems:
    def test_interacted_items_ranked_first(self, ckg):
        scores = personalized_pagerank(ckg, 0)
        ranked = top_k_items_by_ppr(ckg, scores, k=4)
        assert set(ranked[:2].tolist()) == {0, 1}

    def test_exclusion_masks_items(self, ckg):
        scores = personalized_pagerank(ckg, 0)
        ranked = top_k_items_by_ppr(ckg, scores, k=4, exclude_items=[0, 1])
        assert 0 not in ranked[:2]
        assert 1 not in ranked[:2]

    def test_k_capped_at_num_items(self, ckg):
        scores = personalized_pagerank(ckg, 0)
        assert len(top_k_items_by_ppr(ckg, scores, k=100)) == ckg.num_items

    def test_k_validation(self, ckg):
        scores = personalized_pagerank(ckg, 0)
        with pytest.raises(ValueError):
            top_k_items_by_ppr(ckg, scores, k=0)

    def test_saturated_exclusion_never_leaks(self, ckg):
        # Regression: when k exceeded the number of rankable items, the
        # -inf-masked excluded items used to resurface in the tail of
        # the ranking.  They must never appear at any position.
        scores = personalized_pagerank(ckg, 0)
        for excluded in ([0, 1], [0, 1, 2], [0, 1, 2, 3]):
            ranked = top_k_items_by_ppr(ckg, scores, k=ckg.num_items,
                                        exclude_items=excluded)
            assert not set(excluded) & set(ranked.tolist())
            assert len(ranked) == ckg.num_items - len(excluded)

"""Tests for incremental PPR maintenance (repro/ppr/push.py).

Covers the online-update contract: ``CollaborativeKG.add_interactions``
builds the same graph as a from-scratch ``build`` over the union
interaction set, ``keep_residuals=True`` stores the push state needed to
resume, and ``incremental_push`` restores the Andersen-Chung-Lang
invariant on the updated graph — every maintained score lands within
``epsilon * outdeg`` of the converged power iteration, at a fraction of
the from-scratch operation count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.graph import CollaborativeKG, KnowledgeGraph, UserItemGraph
from repro.ppr import (forward_push_batch, incremental_push,
                       personalized_pagerank_batch)


def _random_graph(seed: int):
    """Random (interactions, kg triples, ckg) triple, as in test_ppr_push."""
    rng = np.random.default_rng(seed)
    num_users = int(rng.integers(3, 7))
    num_items = int(rng.integers(5, 10))
    num_entities = num_items + int(rng.integers(3, 8))
    interactions = {(u, int(rng.integers(num_items)))
                    for u in range(num_users)
                    for _ in range(int(rng.integers(1, 4)))}
    triples = {(int(rng.integers(num_entities)), int(rng.integers(2)),
                int(rng.integers(num_entities)))
               for _ in range(int(rng.integers(5, 20)))}
    ui = UserItemGraph(num_users, num_items, sorted(interactions))
    kg = KnowledgeGraph(num_entities, 2,
                        sorted((h, r, t) for h, r, t in triples if h != t))
    return ui, kg, CollaborativeKG.build(ui, kg)


def _fresh_pairs(ckg: CollaborativeKG, seed: int, count: int):
    """Deterministic (user, item) pairs not yet present in the graph."""
    rng = np.random.default_rng(seed)
    pairs = []
    seen = set()
    while len(pairs) < count:
        user = int(rng.integers(ckg.num_users))
        item = int(rng.integers(ckg.num_items))
        if (user, item) in seen or ckg.has_interaction(user, item):
            continue
        seen.add((user, item))
        pairs.append((user, item))
    return pairs


@pytest.fixture
def ckg():
    ui = UserItemGraph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)])
    kg = KnowledgeGraph(6, 2, [(0, 0, 4), (1, 0, 4), (2, 1, 5), (3, 1, 5)])
    return CollaborativeKG.build(ui, kg)


def _two_component_ckg():
    """Two fully disconnected halves: users {0,1} x items {0,1} plus an
    entity, and users {2,3} x items {2,3} plus another entity."""
    ui = UserItemGraph(4, 4, [(0, 0), (1, 0), (1, 1), (2, 2), (3, 2),
                              (3, 3)])
    kg = KnowledgeGraph(6, 2, [(0, 0, 4), (1, 0, 4), (2, 1, 5), (3, 1, 5)])
    return CollaborativeKG.build(ui, kg)


class TestAddInteractions:
    def test_matches_from_scratch_build(self, ckg):
        ui = UserItemGraph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)])
        kg = KnowledgeGraph(6, 2,
                            [(0, 0, 4), (1, 0, 4), (2, 1, 5), (3, 1, 5)])
        appended = ckg.add_interactions([(2, 0), (0, 3)])
        rebuilt = CollaborativeKG.build(
            UserItemGraph(3, 4, [(0, 0), (0, 1), (0, 3), (1, 1), (1, 2),
                                 (2, 0), (2, 3)]), kg)
        assert appended.num_edges == ckg.num_edges + 4  # 2 pairs x 2 twins
        np.testing.assert_array_equal(appended.heads, rebuilt.heads)
        np.testing.assert_array_equal(appended.tails, rebuilt.tails)
        np.testing.assert_array_equal(appended.relations, rebuilt.relations)
        np.testing.assert_array_equal(appended.indptr, rebuilt.indptr)
        assert ui.num_users == 3  # inputs untouched

    def test_input_graph_not_mutated(self, ckg):
        edges_before = ckg.num_edges
        heads_before = ckg.heads.copy()
        ckg.add_interactions([(2, 0)])
        assert ckg.num_edges == edges_before
        np.testing.assert_array_equal(ckg.heads, heads_before)

    def test_has_interaction(self, ckg):
        assert ckg.has_interaction(0, 0)
        assert not ckg.has_interaction(2, 0)
        assert ckg.add_interactions([(2, 0)]).has_interaction(2, 0)

    def test_rejects_existing_and_duplicate_pairs(self, ckg):
        with pytest.raises(ValueError, match="already present"):
            ckg.add_interactions([(0, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            ckg.add_interactions([(2, 0), (2, 0)])
        with pytest.raises(ValueError):
            ckg.add_interactions([])


class TestResidualStorage:
    def test_round_trip_and_solver_params(self, ckg):
        scores = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-4,
                                    keep_residuals=True)
        assert scores.has_residuals
        assert scores.alpha == 0.15
        assert scores.epsilon == 1e-4
        residual = scores.residual_for_user(0)
        assert residual.shape == (ckg.num_nodes,)
        # Unconverged mass is what the estimate is missing: p + r-mass
        # brackets 1 from below per the push invariant.
        total = scores.for_user(0).sum() + residual.sum()
        assert 0.9 <= total <= 1.0 + 1e-5

    def test_residuals_survive_chunked_concat(self, ckg):
        scores = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-4,
                                    chunk_users=1, keep_residuals=True)
        assert scores.has_residuals
        whole = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-4,
                                   keep_residuals=True)
        np.testing.assert_array_equal(scores.toarray(), whole.toarray())
        for user in (0, 1, 2):
            np.testing.assert_array_equal(scores.residual_for_user(user),
                                          whole.residual_for_user(user))

    def test_without_flag_no_residuals(self, ckg):
        scores = forward_push_batch(ckg, [0], epsilon=1e-4)
        assert not scores.has_residuals
        with pytest.raises(ValueError):
            scores.residual_for_user(0)


class TestIncrementalPush:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_scratch_and_truth_within_bound(self, seed):
        """Property: maintained scores obey the push accuracy contract.

        After random new interactions, the incremental result must sit
        within ``epsilon * outdeg`` of the converged power iteration on
        the updated graph (same bound a from-scratch push gets), and
        within twice that of the from-scratch push itself.
        """
        epsilon = 1e-4
        _, _, graph = _random_graph(seed)
        users = list(range(graph.num_users))
        base = forward_push_batch(graph, users, epsilon=epsilon,
                                  keep_residuals=True)
        pairs = _fresh_pairs(graph, seed + 1, count=2)
        result = incremental_push(graph, base, pairs)

        scratch = forward_push_batch(result.ckg, users, epsilon=epsilon,
                                     keep_residuals=True)
        truth = personalized_pagerank_batch(result.ckg, users,
                                            iterations=500,
                                            tolerance=1e-14)
        outdeg = np.diff(result.ckg.indptr)
        bound = epsilon * np.maximum(outdeg, 1) + 1e-6
        for user in users:
            inc = result.scores.for_user(user).astype(np.float64)
            ref = scratch.for_user(user).astype(np.float64)
            exact = truth.for_user(user)
            assert np.all(np.abs(inc - exact) <= bound)
            assert np.all(np.abs(ref - exact) <= bound)
            assert np.all(np.abs(inc - ref) <= 2.0 * bound)

    def test_inputs_not_mutated(self, ckg):
        base = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-4,
                                  keep_residuals=True)
        values_before = base.values.copy()
        residuals_before = base.res_values.copy()
        edges_before = ckg.num_edges
        incremental_push(ckg, base, [(2, 0)])
        assert ckg.num_edges == edges_before
        np.testing.assert_array_equal(base.values, values_before)
        np.testing.assert_array_equal(base.res_values, residuals_before)

    def test_result_supports_further_updates(self, ckg):
        """Maintained scores carry residuals, so updates chain."""
        base = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-4,
                                  keep_residuals=True)
        first = incremental_push(ckg, base, [(2, 0)])
        second = incremental_push(first.ckg, first.scores, [(0, 3)])
        scratch = forward_push_batch(second.ckg, [0, 1, 2], epsilon=1e-4,
                                     keep_residuals=True)
        outdeg = np.diff(second.ckg.indptr)
        bound = 2.0 * 1e-4 * np.maximum(outdeg, 1) + 1e-6
        for user in (0, 1, 2):
            delta = np.abs(second.scores.for_user(user).astype(np.float64)
                           - scratch.for_user(user).astype(np.float64))
            assert np.all(delta <= bound)

    def test_changed_users_confined_to_component(self):
        graph = _two_component_ckg()
        base = forward_push_batch(graph, [0, 1, 2, 3], epsilon=1e-5,
                                  keep_residuals=True)
        result = incremental_push(graph, base, [(0, 1)])
        assert set(result.changed_users.tolist()) <= {0, 1}
        assert 0 in set(result.changed_users.tolist())
        # The untouched component's rows are bit-identical.
        for user in (2, 3):
            np.testing.assert_array_equal(result.scores.for_user(user),
                                          base.for_user(user))
            np.testing.assert_array_equal(
                result.scores.residual_for_user(user),
                base.residual_for_user(user))

    def test_untouched_single_part_result_shares_no_array(self):
        """A one-part store the write never reaches is carried, not
        re-encoded; the result must still own its arrays, because
        ``normalize_by_degree`` divides them in place."""
        graph = _two_component_ckg()
        base = forward_push_batch(graph, [0, 1], epsilon=1e-5,
                                  keep_residuals=True)
        values_before = base.values.copy()
        residuals_before = base.res_values.copy()
        result = incremental_push(graph, base, [(2, 3)])
        assert result.changed_users.size == 0
        result.scores.normalize_by_degree(np.diff(result.ckg.indptr))
        np.testing.assert_array_equal(base.values, values_before)
        np.testing.assert_array_equal(base.res_values, residuals_before)
        for name in ("users", "indptr", "node_ids", "values", "res_indptr",
                     "res_node_ids", "res_values"):
            assert not np.shares_memory(getattr(result.scores, name),
                                        getattr(base, name))

    def test_cheaper_than_scratch(self):
        rng = np.random.default_rng(7)
        interactions = sorted({(int(rng.integers(50)),
                                int(rng.integers(40)))
                               for _ in range(220)})
        triples = sorted({(int(rng.integers(100)), int(rng.integers(2)),
                           int(rng.integers(100)))
                          for _ in range(300)})
        graph = CollaborativeKG.build(
            UserItemGraph(50, 40, interactions),
            KnowledgeGraph(100, 2, [t for t in triples if t[0] != t[2]]))
        users = list(range(50))
        base = forward_push_batch(graph, users, epsilon=1e-4,
                                  keep_residuals=True)
        result = incremental_push(graph, base, _fresh_pairs(graph, 8, 3))

        telemetry.reset()
        telemetry.enable()
        try:
            forward_push_batch(result.ckg, users, epsilon=1e-4,
                               keep_residuals=True)
            snapshot = telemetry.get_registry().snapshot()
        finally:
            telemetry.disable()
            telemetry.reset()
        scratch_ops = snapshot["counters"]["ppr.push_ops"]["total"]
        assert 0 < result.push_ops < scratch_ops

    def test_records_dedicated_counter(self, ckg):
        base = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-4,
                                  keep_residuals=True)
        telemetry.reset()
        telemetry.enable()
        try:
            result = incremental_push(ckg, base, [(2, 0)])
            counters = telemetry.get_registry().snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert counters["ppr.incremental_pushes"]["total"] == result.push_ops
        assert counters["ppr.push_ops"]["total"] == result.push_ops

    def test_validation(self, ckg):
        base = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-4,
                                  keep_residuals=True)
        truncated = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-4)
        with pytest.raises(ValueError, match="keep_residuals"):
            incremental_push(ckg, truncated, [(2, 0)])
        with pytest.raises(ValueError):
            incremental_push(ckg, base, [])
        with pytest.raises(ValueError):
            incremental_push(ckg, base, [(2, 0)], chunk_users=0)
        other = _two_component_ckg()
        with pytest.raises(ValueError):
            incremental_push(other, base, [(2, 0)])

"""Tests for incremental PPR maintenance (repro/ppr/push.py).

Covers the online-update contract: ``CollaborativeKG.add_interactions``
builds the same graph as a from-scratch ``build`` over the union
interaction set, ``keep_residuals=True`` stores the push state needed to
resume, and ``incremental_push`` restores the Andersen-Chung-Lang
invariant on the updated graph — every maintained score lands within
``epsilon * outdeg`` of the converged power iteration, at a fraction of
the from-scratch operation count.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.data import lastfm_like, traditional_split
from repro.graph import (CollaborativeKG, KnowledgeGraph, UserItemGraph,
                         load_npy)
from repro.ppr import (SparsePPRScores, concat_sparse_scores,
                       forward_push_batch, incremental_push,
                       personalized_pagerank_batch, push)
from repro.ppr.push import CSR_FIELDS, RES_FIELDS
from repro.storage import ShardedPPRScores, ShardWriter

from .reference_ops import reference_incremental_push


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
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 6),
           repeat=st.sampled_from(["user", "item", None]),
           mmap=st.booleans())
    def test_matches_from_scratch_build(self, seed, count, repeat, mmap):
        """Inserted edges land where the constructor's sort puts them."""
        ui, kg, graph = _random_graph(seed)
        fresh = [(user, item) for user in range(graph.num_users)
                 for item in range(graph.num_items)
                 if not graph.has_interaction(user, item)]
        order = np.random.default_rng(seed).permutation(len(fresh))
        pairs = [fresh[k] for k in order[:count]]
        if repeat is not None:
            # up to three more pairs sharing the first one's user or item
            fixed = 0 if repeat == "user" else 1
            pairs += [pair for pair in fresh if pair not in pairs
                      and pair[fixed] == pairs[0][fixed]][:3]
        union = set(zip(ui.users.tolist(), ui.items.tolist())) | set(pairs)
        rebuilt = CollaborativeKG.build(
            UserItemGraph(ui.num_users, ui.num_items, sorted(union)), kg)
        with tempfile.TemporaryDirectory() as directory:
            if mmap:
                graph = load_npy(graph.save_npy(directory))
            appended = graph.add_interactions(pairs)
        assert type(appended) is CollaborativeKG
        assert appended.num_edges == graph.num_edges + 2 * len(pairs)
        for name in ("heads", "relations", "tails", "indptr"):
            got, want = getattr(appended, name), getattr(rebuilt, name)
            assert type(got) is np.ndarray
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert ui.num_users == rebuilt.num_users  # inputs untouched

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
        re-encoded; the result must still own its arrays, so that each
        version stays as it was written."""
        graph = _two_component_ckg()
        base = forward_push_batch(graph, [0, 1], epsilon=1e-5,
                                  keep_residuals=True)
        values_before = base.values.copy()
        residuals_before = base.res_values.copy()
        result = incremental_push(graph, base, [(2, 3)])
        assert result.changed_users.size == 0
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


# ----------------------------------------------------------------------
# Zero-tolerance oracle: the whole-part maintenance loop
# ----------------------------------------------------------------------

def _sharded(scores, chunk, directory):
    """``scores`` written as a shard store, one shard per ``chunk`` rows."""
    writer = ShardWriter(str(directory), scores.num_nodes,
                         keep_residuals=True)
    for part in scores.parts(chunk):
        writer.append(part)
    return writer.finalize(alpha=scores.alpha, epsilon=scores.epsilon)


def _whole(scores):
    """Either store's rows as one in-RAM structure."""
    if isinstance(scores, ShardedPPRScores):
        return concat_sparse_scores(scores.parts())
    return scores


def _shard_counts():
    counters = telemetry.get_registry().snapshot()["counters"]
    return [counters.get(name, {}).get("total", 0.0)
            for name in ("storage.shards_rewritten", "storage.shards_reused")]


def _check_against_reference(graph, ours, theirs, pairs, chunk):
    """Maintain ``ours`` and, by the oracle, ``theirs`` (equal stores);
    assert the results agree and return ours."""
    telemetry.reset()
    telemetry.enable()
    try:
        got = incremental_push(graph, ours, pairs, chunk_users=chunk)
        got_shards = _shard_counts()
        telemetry.reset()
        want = reference_incremental_push(graph, theirs, pairs,
                                          chunk_users=chunk)
        want_shards = _shard_counts()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert got_shards == want_shards
    assert got.changed_users.dtype == want.changed_users.dtype
    assert np.array_equal(got.changed_users, want.changed_users)
    assert got.push_ops == want.push_ops
    maintained, oracle = _whole(got.scores), _whole(want.scores)
    for name in CSR_FIELDS + RES_FIELDS:
        array, expected = getattr(maintained, name), getattr(oracle, name)
        assert array.dtype == expected.dtype, name
        assert np.array_equal(array, expected), name
    # the totals sum stored float32 entries instead of float64 ones
    assert abs(got.scores.residual - want.scores.residual) \
        <= 2.0 ** -24 * want.scores.residual
    return got, want


@pytest.fixture(scope="module")
def lastfm_graph():
    dataset = lastfm_like(seed=0, scale=0.3)
    return dataset.build_ckg(traditional_split(dataset, seed=0).train)


class TestMaintenanceOracle:
    """Row-restricted maintenance is the whole-part loop, bit for bit."""

    @pytest.mark.parametrize("chunk", [4, 64])
    @pytest.mark.parametrize("count", [1, 30])
    def test_lastfm_chains(self, lastfm_graph, tmp_path, chunk, count):
        base = forward_push_batch(lastfm_graph,
                                  range(lastfm_graph.num_users),
                                  chunk_users=chunk, keep_residuals=True)
        stores = {"ram": (base, base),
                  "mmap": (_sharded(base, chunk, tmp_path / "ours"),
                           _sharded(base, chunk, tmp_path / "oracle"))}
        graph = lastfm_graph
        for step in range(3):
            pairs = _fresh_pairs(graph, seed=step, count=count)
            results = {}
            for store, (ours, theirs) in stores.items():
                got, want = _check_against_reference(graph, ours, theirs,
                                                     pairs, chunk)
                stores[store] = (got.scores, want.scores)
                results[store] = got
            assert results["ram"].scores.residual \
                == results["mmap"].scores.residual
            graph = results["ram"].ckg

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), chunk=st.integers(1, 7),
           count=st.integers(0, 3),
           epsilon=st.sampled_from([1e-2, 1e-3, 1e-4, 1e-6]))
    def test_random_graphs(self, seed, chunk, count, epsilon):
        ui, kg, _ = _random_graph(seed)
        # one more user without interactions: an inserted head whose
        # out-degree is 0 until the write
        idle = ui.num_users
        graph = CollaborativeKG.build(
            UserItemGraph(idle + 1, ui.num_items,
                          zip(ui.users.tolist(), ui.items.tolist())), kg)
        pairs = [(idle, seed % ui.num_items)] + [
            pair for pair in _fresh_pairs(graph, seed, count)
            if pair[0] != idle]
        base = forward_push_batch(graph, range(graph.num_users),
                                  epsilon=epsilon, chunk_users=chunk,
                                  keep_residuals=True)
        with tempfile.TemporaryDirectory() as directory:
            ram, _ = _check_against_reference(graph, base, base, pairs,
                                              chunk)
            mmap, _ = _check_against_reference(
                graph, _sharded(base, chunk, f"{directory}/ours"),
                _sharded(base, chunk, f"{directory}/oracle"), pairs, chunk)
        assert ram.scores.residual == mmap.scores.residual
        assert idle in ram.changed_users

    @pytest.mark.parametrize("store", ["ram", "mmap"])
    def test_planted_residual_above_threshold_is_pushed(self, store,
                                                        tmp_path):
        """A row the write's heads never reach still moves when a stored
        residual sits above its threshold: the sweep's first scan of the
        whole-part loop pushes it."""
        graph = _two_component_ckg()
        base = forward_push_batch(graph, range(4), epsilon=1e-5,
                                  chunk_users=2, keep_residuals=True)
        pairs = [(0, 1)]  # inside users {0, 1}'s component
        heads = np.asarray([0, int(graph.item_nodes[1])])
        user = 2
        assert not base.lookup([user, user], heads).any()
        entry = int(base.res_indptr[user])
        assert entry < base.res_indptr[user + 1]
        node = int(base.res_node_ids[entry])
        threshold = base.epsilon * np.diff(
            graph.add_interactions(pairs).indptr)[node]
        planted = np.float32(threshold)
        if planted <= threshold:
            planted = np.nextafter(planted, np.float32(np.inf))
        res_values = base.res_values.copy()
        res_values[entry] = planted
        scores = SparsePPRScores(
            users=base.users, num_nodes=base.num_nodes, indptr=base.indptr,
            node_ids=base.node_ids, values=base.values,
            res_indptr=base.res_indptr, res_node_ids=base.res_node_ids,
            res_values=res_values, alpha=base.alpha, epsilon=base.epsilon)
        if store == "mmap":
            ours = _sharded(scores, 2, tmp_path / "ours")
            theirs = _sharded(scores, 2, tmp_path / "oracle")
        else:
            ours = theirs = scores
        got, want = _check_against_reference(graph, ours, theirs, pairs, 2)
        assert user in want.changed_users
        assert user in got.changed_users

    @pytest.mark.parametrize("store", ["ram", "mmap"])
    def test_densifies_only_the_rows_a_write_moves(self, store, tmp_path,
                                                   monkeypatch):
        graph = _two_component_ckg()
        base = forward_push_batch(graph, range(4), epsilon=1e-5,
                                  chunk_users=4, keep_residuals=True)
        scores = base if store == "ram" else _sharded(base, 4, tmp_path)
        densified = []
        apply_delta = push._apply_delta_chunk

        def spy(new_ckg, estimate, *args):
            densified.append(estimate.shape[0])
            return apply_delta(new_ckg, estimate, *args)

        monkeypatch.setattr(push, "_apply_delta_chunk", spy)
        telemetry.reset()
        telemetry.enable()
        try:
            result = incremental_push(graph, scores, [(0, 1)],
                                      chunk_users=4)
            counters = telemetry.get_registry().snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        # the one part holds users 0-3; the write moves a strict subset
        assert 0 < result.changed_users.size < 4
        assert sum(densified) == result.changed_users.size
        assert counters["ppr.incremental_rows"]["total"] \
            == result.changed_users.size

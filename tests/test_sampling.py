"""Tests for computation graphs: structure, pruning, and Proposition 1."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import lastfm_like
from repro.graph import CollaborativeKG, KnowledgeGraph, UserItemGraph
from repro.ppr import personalized_pagerank_batch, sparsify_scores
from repro.sampling import (build_ui_computation_graph,
                            build_user_centric_graph, ui_subgraph_layers)
from repro.sampling.computation_graph import _edge_scores, _top_k_per_group
from repro.storage import ShardWriter

from .reference_ops import (reference_degree_normalized_csr,
                            reference_degree_normalized_dense,
                            reference_top_k_per_group)


@pytest.fixture(scope="module")
def ckg():
    ui = UserItemGraph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)])
    kg = KnowledgeGraph(6, 2, [(0, 0, 4), (1, 0, 4), (2, 1, 5), (3, 1, 5)])
    return CollaborativeKG.build(ui, kg)


@pytest.fixture(scope="module")
def medium():
    dataset = lastfm_like(seed=1, scale=0.25)
    return dataset.build_ckg()


class TestUserCentricGraph:
    def test_layer0_is_the_users(self, ckg):
        graph = build_user_centric_graph(ckg, [0, 2], depth=2, k=None)
        assert graph.nodes[0].tolist() == [0, 2]
        assert graph.slots[0].tolist() == [0, 1]

    def test_layer1_matches_out_edges(self, ckg):
        graph = build_user_centric_graph(ckg, [0], depth=1, k=None)
        _, _, tails = ckg.out_edges(np.array([0]))
        assert set(graph.nodes[1].tolist()) == set(np.unique(tails).tolist())

    def test_edges_index_correct_tables(self, ckg):
        graph = build_user_centric_graph(ckg, [0, 1], depth=3, k=None)
        for level, layer in enumerate(graph.layers, start=1):
            assert layer.src_pos.max(initial=-1) < graph.layer_size(level - 1)
            assert layer.dst_pos.max(initial=-1) < graph.layer_size(level)
            # dst table rows hold the edge tails
            assert np.array_equal(graph.nodes[level][layer.dst_pos], layer.tails)
            assert np.array_equal(graph.nodes[level - 1][layer.src_pos], layer.heads)

    def test_slots_do_not_mix(self, ckg):
        graph = build_user_centric_graph(ckg, [0, 2], depth=2, k=None)
        for level, layer in enumerate(graph.layers, start=1):
            src_slots = graph.slots[level - 1][layer.src_pos]
            dst_slots = graph.slots[level][layer.dst_pos]
            assert np.array_equal(src_slots, dst_slots)

    def test_pruning_respects_budget(self, medium):
        users = [0, 1, 2]
        ppr = personalized_pagerank_batch(medium, users)
        k = 5
        graph = build_user_centric_graph(medium, users, depth=3,
                                         ppr_scores=ppr.scores, k=k)
        for level, layer in enumerate(graph.layers, start=1):
            counts = np.bincount(layer.src_pos, minlength=graph.layer_size(level - 1))
            assert counts.max(initial=0) <= k

    def test_pruned_graph_is_smaller(self, medium):
        users = [0, 1]
        ppr = personalized_pagerank_batch(medium, users)
        full = build_user_centric_graph(medium, users, depth=3, k=None)
        pruned = build_user_centric_graph(medium, users, depth=3,
                                          ppr_scores=ppr.scores, k=5)
        assert pruned.total_edges() < full.total_edges()

    def test_ppr_pruning_keeps_high_score_tails(self, medium):
        """PPR sampling keeps tails with higher average score than random."""
        users = [0]
        ppr = personalized_pagerank_batch(medium, users)
        rng = np.random.default_rng(0)
        ppr_graph = build_user_centric_graph(medium, users, depth=2,
                                             ppr_scores=ppr.scores, k=3)
        random_graph = build_user_centric_graph(medium, users, depth=2, k=3,
                                                sampler="random", rng=rng)
        score_of = ppr.scores[0]
        ppr_mean = np.mean([score_of[layer.tails].mean()
                            for layer in ppr_graph.layers])
        random_mean = np.mean([score_of[layer.tails].mean()
                               for layer in random_graph.layers])
        assert ppr_mean >= random_mean

    def test_random_sampler_deterministic_with_rng(self, medium):
        a = build_user_centric_graph(medium, [0], depth=2, k=4,
                                     sampler="random",
                                     rng=np.random.default_rng(3))
        b = build_user_centric_graph(medium, [0], depth=2, k=4,
                                     sampler="random",
                                     rng=np.random.default_rng(3))
        assert a.total_edges() == b.total_edges()
        assert np.array_equal(a.layers[0].tails, b.layers[0].tails)

    def test_final_rows_lookup(self, ckg):
        graph = build_user_centric_graph(ckg, [0], depth=2, k=None)
        last = graph.depth
        nodes = graph.nodes[last]
        rows = graph.final_rows(0, nodes)
        assert np.array_equal(graph.nodes[last][rows], nodes)

    def test_final_rows_missing_is_minus_one(self, ckg):
        graph = build_user_centric_graph(ckg, [0], depth=1, k=None)
        # user 2's island (item 3) is unreachable from user 0 in 1 hop
        unreachable = ckg.item_node(3)
        rows = graph.final_rows(0, np.asarray([unreachable]))
        assert rows[0] == -1

    def test_rows_for_pairs_empty_table(self, ckg):
        # Regression: an all-empty layer table used to wrap the clipped
        # searchsorted position to index -1 and report spurious matches.
        graph = build_user_centric_graph(ckg, [0], depth=1, k=None)
        graph.slots[1] = np.empty(0, dtype=np.int64)
        graph.nodes[1] = np.empty(0, dtype=np.int64)
        rows = graph.rows_for_pairs(1, np.array([0, 0]), np.array([0, 3]))
        assert rows.tolist() == [-1, -1]

    def test_validation(self, ckg):
        with pytest.raises(ValueError):
            build_user_centric_graph(ckg, [0], depth=0)
        with pytest.raises(ValueError):
            build_user_centric_graph(ckg, [], depth=1)
        with pytest.raises(ValueError):
            build_user_centric_graph(ckg, [0], depth=1, k=0)
        with pytest.raises(ValueError):
            build_user_centric_graph(ckg, [0], depth=1, k=2, sampler="ppr")
        with pytest.raises(ValueError):
            build_user_centric_graph(ckg, [0], depth=1, sampler="bogus")


class TestUISubgraph:
    def test_endpoint_layers(self, ckg):
        node_sets, _ = ui_subgraph_layers(ckg, 0, 1, depth=3)
        assert node_sets[0] == {ckg.user_node(0)}
        assert node_sets[3] == {ckg.item_node(1)}

    def test_no_path_gives_empty_sets(self, ckg):
        # user 0 and item 3 live in disconnected components
        node_sets, edge_sets = ui_subgraph_layers(ckg, 0, 3, depth=3)
        assert all(not nodes for nodes in node_sets[1:])
        assert all(edges.size == 0 for edges in edge_sets[1:])

    def test_edges_connect_adjacent_layers(self, ckg):
        node_sets, edge_sets = ui_subgraph_layers(ckg, 0, 1, depth=3)
        for hop in range(1, 4):
            heads = ckg.heads[edge_sets[hop]]
            tails = ckg.tails[edge_sets[hop]]
            assert set(heads.tolist()) <= node_sets[hop - 1]
            assert set(tails.tolist()) <= node_sets[hop]

    def test_proposition1_nodes_and_edges(self, medium):
        """Proposition 1: U-I subgraph layers are contained in the
        user-centric graph layers, for every item."""
        user = 0
        depth = 3
        centric = build_user_centric_graph(medium, [user], depth=depth, k=None)
        centric_nodes = [set(nodes.tolist()) for nodes in centric.nodes]
        centric_edges = [set(zip(layer.heads.tolist(), layer.relations.tolist(),
                                 layer.tails.tolist()))
                         for layer in centric.layers]
        rng = np.random.default_rng(0)
        for item in rng.choice(medium.num_items, size=8, replace=False):
            node_sets, edge_sets = ui_subgraph_layers(medium, user, int(item), depth)
            for hop in range(1, depth + 1):
                assert node_sets[hop] <= centric_nodes[hop]
                ui_edges = set(zip(medium.heads[edge_sets[hop]].tolist(),
                                   medium.relations[edge_sets[hop]].tolist(),
                                   medium.tails[edge_sets[hop]].tolist()))
                assert ui_edges <= centric_edges[hop - 1]

    def test_eq12_user_centric_cheaper_than_sum_of_pairs(self, medium):
        """Eq. (12): the merged graph has far fewer edges than the sum of
        individual U-I computation graphs."""
        user = 0
        depth = 3
        centric = build_user_centric_graph(medium, [user], depth=depth, k=None)
        pair_total = sum(
            build_ui_computation_graph(medium, user, item, depth).total_edges()
            for item in range(medium.num_items)
        )
        assert centric.total_edges() < pair_total


class TestUIComputationGraph:
    def test_structure_valid(self, medium):
        graph = build_ui_computation_graph(medium, 0, 0, depth=3)
        for level, layer in enumerate(graph.layers, start=1):
            if layer.num_edges == 0:
                continue
            assert np.array_equal(graph.nodes[level][layer.dst_pos], layer.tails)
            assert np.array_equal(graph.nodes[level - 1][layer.src_pos], layer.heads)

    def test_single_slot(self, medium):
        graph = build_ui_computation_graph(medium, 0, 0, depth=3)
        assert graph.num_users == 1
        for slots in graph.slots:
            assert np.all(slots == 0)


class TestTopKPerGroup:
    def test_basic(self):
        groups = np.array([0, 0, 0, 1, 1])
        scores = np.array([0.1, 0.9, 0.5, 0.3, 0.7])
        keep = _top_k_per_group(groups, scores, 2)
        assert sorted(scores[keep].tolist()) == [0.3, 0.5, 0.7, 0.9]

    def test_k_larger_than_group(self):
        groups = np.array([0, 0, 1])
        keep = _top_k_per_group(groups, np.array([1.0, 2.0, 3.0]), 10)
        assert keep.tolist() == [0, 1, 2]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.floats(0, 1)),
                    min_size=1, max_size=50),
           st.integers(1, 5))
    def test_property_budget_and_top_scores(self, pairs, k):
        pairs.sort(key=lambda p: p[0])
        groups = np.array([g for g, _ in pairs])
        scores = np.array([s for _, s in pairs])
        keep = _top_k_per_group(groups, scores, k)
        kept_mask = np.zeros(len(pairs), dtype=bool)
        kept_mask[keep] = True
        for group in np.unique(groups):
            members = groups == group
            kept = kept_mask & members
            # budget respected
            assert kept.sum() <= k
            assert kept.sum() == min(k, members.sum())
            # kept scores dominate dropped scores
            if kept.any() and (members & ~kept_mask).any():
                assert scores[kept].min() >= scores[members & ~kept_mask].max() - 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=60),
           st.data(), st.integers(1, 5))
    def test_bitwise_equal_to_full_lexsort(self, groups, data, k):
        """Ranking only groups larger than k keeps the same index array,
        ties (few distinct scores) included."""
        groups = np.sort(np.asarray(groups, dtype=np.int64))
        scores = np.asarray(data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]),
            min_size=groups.size, max_size=groups.size)))
        keep = _top_k_per_group(groups, scores, k)
        expected = reference_top_k_per_group(groups, scores, k)
        assert keep.dtype == expected.dtype
        assert np.array_equal(keep, expected)


class TestPrunedSubsetInvariant:
    def test_pruned_graph_is_subgraph_of_full(self, medium):
        """Pruning only removes: every pruned edge set is contained in the
        unpruned user-centric graph's (Algorithm 1 line 4 is a selection)."""
        users = [0, 1]
        ppr = personalized_pagerank_batch(medium, users)
        full = build_user_centric_graph(medium, users, depth=3, k=None)
        pruned = build_user_centric_graph(medium, users, depth=3,
                                          ppr_scores=ppr.scores, k=4)
        for level in range(3):
            full_edges = set(zip(
                full.slots[level + 1][full.layers[level].dst_pos].tolist(),
                full.layers[level].heads.tolist(),
                full.layers[level].relations.tolist(),
                full.layers[level].tails.tolist()))
            pruned_edges = set(zip(
                pruned.slots[level + 1][pruned.layers[level].dst_pos].tolist(),
                pruned.layers[level].heads.tolist(),
                pruned.layers[level].relations.tolist(),
                pruned.layers[level].tails.tolist()))
            assert pruned_edges <= full_edges


# ----------------------------------------------------------------------
# Degree normalization at lookup against the store divisions it replaced
# ----------------------------------------------------------------------

#: raw scores with repeats (ties) and values float32 cannot hold exactly
RAW_SCORES = [0.0, 0.1, 0.125, 0.3, 0.5, 1.0]
BUDGETS = [1, 2, 5, None]


def _directed_ckg(data):
    """A random directed CKG without reverse twins.  The last node heads
    no edge and user 0 points at it, so a tail with out-degree 0 is
    always expanded."""
    num_users = data.draw(st.integers(1, 4), label="num_users")
    num_nodes = num_users + data.draw(st.integers(2, 10), label="others")
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 2), st.integers(0, 3),
                  st.integers(0, num_nodes - 1)),
        max_size=60, unique=True), label="edges")
    edges = sorted(set(edges) | {(0, 0, num_nodes - 1)})
    heads, relations, tails = (np.asarray(column, dtype=np.int64)
                               for column in zip(*edges))
    return CollaborativeKG(
        num_users=num_users, num_items=num_nodes - num_users,
        num_entities=0, num_base_relations=2,
        item_nodes=np.arange(num_users, num_nodes, dtype=np.int64),
        heads=heads, relations=relations, tails=tails, num_nodes=num_nodes)


def _assert_same_graph(actual, expected):
    """Every node table and edge array equal, dtype included."""
    pairs = list(zip(actual.slots + actual.nodes,
                     expected.slots + expected.nodes))
    for a, b in zip(actual.layers, expected.layers):
        pairs += [(getattr(a, name), getattr(b, name)) for name in
                  ("src_pos", "relations", "dst_pos", "heads", "tails")]
    assert actual.depth == expected.depth
    for a, b in pairs:
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestDegreeNormalizedPruning:
    """The pruner on raw rows with ``degree_normalized=True`` keeps the
    graph it kept on rows divided up front (the trainer's dense float64
    division and the CSR stores' float32 one), on every score store."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_divided_stores(self, data):
        ckg = _directed_ckg(data)
        raw = np.asarray(data.draw(st.lists(
            st.sampled_from(RAW_SCORES),
            min_size=ckg.num_users * ckg.num_nodes,
            max_size=ckg.num_users * ckg.num_nodes), label="scores"),
            dtype=np.float64).reshape(ckg.num_users, ckg.num_nodes)
        users = data.draw(st.lists(st.integers(0, ckg.num_users - 1),
                                   min_size=1, max_size=5), label="users")
        all_users = list(range(ckg.num_users))
        depth = data.draw(st.integers(1, 3), label="depth")
        k = data.draw(st.one_of(
            st.sampled_from(BUDGETS),
            st.lists(st.sampled_from(BUDGETS), min_size=depth,
                     max_size=depth)), label="k")
        chunk = data.draw(st.integers(1, ckg.num_users), label="chunk")
        divided = reference_degree_normalized_dense(raw, ckg)
        store = sparsify_scores(raw, all_users, top_m=ckg.num_nodes)
        store_divided = reference_degree_normalized_csr(store, ckg)

        def check(batch, rows, divided_rows):
            slots = np.repeat(np.arange(len(batch)), ckg.num_nodes)
            nodes = np.tile(np.arange(ckg.num_nodes), len(batch))
            scores = _edge_scores(ckg, rows, slots, nodes, True)
            expected = _edge_scores(ckg, divided_rows, slots, nodes, False)
            assert scores.dtype == expected.dtype
            assert np.array_equal(scores, expected)
            _assert_same_graph(
                build_user_centric_graph(ckg, batch, depth=depth,
                                         ppr_scores=rows, k=k,
                                         degree_normalized=True),
                build_user_centric_graph(ckg, batch, depth=depth,
                                         ppr_scores=divided_rows, k=k))

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scores.npy")
            np.save(path, raw)
            mapped = np.load(path, mmap_mode="r")
            writer = ShardWriter(os.path.join(tmp, "shards"), ckg.num_nodes)
            for part in store.parts(chunk):
                writer.append(part)
            sharded = writer.finalize(max_open=1)
            sharded_rows = sharded.select(users)

            check(users, raw[users], divided[users])
            check(all_users, mapped, divided)
            check(users, store.select(users), store_divided.select(users))
            check(users, sharded_rows,
                  reference_degree_normalized_csr(sharded_rows, ckg))

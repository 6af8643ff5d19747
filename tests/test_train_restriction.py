"""The training step propagates only the edges its loss reads.

``KUCNetRecommender._train_step`` samples the batch's pairs, then runs
the model over ``ComputationGraph.restrict_to_rows`` of the cached
graph: the edges on a path to a last-layer row a pair's score reads.
The oracle is the whole-graph step it replaced,
``tests/reference_ops.py::reference_train_step``.  Against it every
random stream must be equal, and the loss and the rows it reads
bitwise-equal, as long as each per-edge BLAS product gives every edge
the same bits on the kept edges as on all of them.  At the ``dim=8``
used here that holds for any product of two or more rows; numpy sends
a one-row product to gemv or dot instead of gemm, which sums in another
order, so a step that keeps a single edge in some layer is held to
``RTOL`` instead.  Gradients may differ in the last bits anyway: a
weight gradient reduces over fewer rows (the dropped terms are exact
zeros), and BLAS groups the sum by the row count.
"""

import itertools

import numpy as np
import pytest

from repro import telemetry as tm
from repro.autodiff import Adam
from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
from repro.data import (amazon_book_like, lastfm_like, new_user_split,
                        traditional_split)
from repro.sampling import build_user_centric_graph

from .reference_ops import reference_train_step

#: deviation allowed where bits may differ, relative to the largest entry
RTOL = 1e-13
BATCH_USERS = 8


class WholeGraphRecommender(KUCNetRecommender):
    """The trainer with the whole-graph step of the parent design."""

    def _train_step(self, users, split):
        return reference_train_step(self, users, split)


@pytest.fixture(scope="module", params=["lastfm_like", "amazon_book_like"])
def split(request):
    preset = {"lastfm_like": lastfm_like,
              "amazon_book_like": amazon_book_like}[request.param]
    return traditional_split(preset(seed=0, scale=0.15), seed=0)


@pytest.fixture(scope="module")
def lastfm_split():
    return traditional_split(lastfm_like(seed=0, scale=0.15), seed=0)


def _recommender(split, depth, k=5, attention=True, dropout=0.0,
                 sampler="ppr", cls=KUCNetRecommender):
    rec = cls(KUCNetConfig(dim=8, depth=depth, dropout=dropout,
                           use_attention=attention, seed=0),
              TrainConfig(k=k, sampler=sampler, batch_users=BATCH_USERS,
                          pairs_per_user=4, seed=0))
    rec.prepare(split)
    return rec


def _streams(rec):
    """Every generator a step can draw from, as comparable states."""
    return ([rec._rng.bit_generator.state]
            + [layer.dropout._rng.bit_generator.state
               for layer in rec.model.layers])


def _record_reads(rec):
    """Collect each ``pair_scores`` call's graph and the last-layer rows
    it reads."""
    reads = []
    original = rec.model.pair_scores

    def pair_scores(propagation, slots, item_nodes):
        graph = propagation.graph
        rows = graph.rows_for_pairs(graph.depth, slots, item_nodes)
        reads.append((graph,
                      propagation.hidden[-1].data[rows[rows >= 0]].copy()))
        return original(propagation, slots, item_nodes)

    rec.model.pair_scores = pair_scores
    return reads


def _assert_close(mine, theirs, exact):
    if exact:
        assert mine.tobytes() == theirs.tobytes()
    else:
        scale = np.abs(theirs).max(initial=0.0)
        assert np.abs(mine - theirs).max(initial=0.0) <= RTOL * scale


def _batches(split, count):
    users = sorted(split.train.users_with_interactions())
    return [tuple(users[start:start + BATCH_USERS])
            for start in range(0, count * BATCH_USERS, BATCH_USERS)]


def _paths_to(graph, last_rows):
    """Per layer, a mask of the edges on a path to ``last_rows``, found
    by walking every edge's own chain up to the last layer."""
    masks = []
    for level in range(1, graph.depth + 1):
        mask = np.zeros(graph.layers[level - 1].num_edges, dtype=bool)
        for edge in range(mask.size):
            frontier = {int(graph.layers[level - 1].dst_pos[edge])}
            for upper in range(level + 1, graph.depth + 1):
                edges = graph.layers[upper - 1]
                frontier = {int(dst) for src, dst
                            in zip(edges.src_pos, edges.dst_pos)
                            if int(src) in frontier}
            mask[edge] = bool(frontier & set(int(r) for r in last_rows))
        masks.append(mask)
    return masks


class TestRestrictToRows:
    @pytest.fixture(scope="class")
    def graph(self, lastfm_split):
        rec = _recommender(lastfm_split, depth=3, k=4)
        return rec._graph_for(_batches(lastfm_split, 1)[0])

    @pytest.mark.parametrize("pick", [0, 1, 3, 17])
    def test_keeps_exactly_the_edges_on_a_path(self, graph, pick):
        rng = np.random.default_rng(pick)
        rows = rng.choice(graph.layer_size(graph.depth), size=pick,
                          replace=False)
        support = graph.restrict_to_rows(rows)
        for whole, kept, mask in zip(graph.layers, support.layers,
                                     _paths_to(graph, rows)):
            for name in ("src_pos", "relations", "dst_pos", "heads", "tails"):
                assert np.array_equal(getattr(kept, name),
                                      getattr(whole, name)[mask]), name

    def test_shares_node_tables_and_leaves_the_graph_as_built(self, graph):
        before = [layer.src_pos.copy() for layer in graph.layers]
        support = graph.restrict_to_rows(np.array([0, 2]))
        assert support.users is graph.users
        for mine, theirs in zip(support.slots + support.nodes,
                                graph.slots + graph.nodes):
            assert mine is theirs
        assert support.slots is not graph.slots
        assert support.depth == graph.depth
        for layer, src_pos in zip(graph.layers, before):
            assert np.array_equal(layer.src_pos, src_pos)

    def test_every_last_row_keeps_every_edge(self, graph):
        support = graph.restrict_to_rows(
            np.arange(graph.layer_size(graph.depth)))
        assert support.total_edges() == graph.total_edges()

    def test_no_rows_keeps_no_edges(self, graph):
        support = graph.restrict_to_rows(np.empty(0, dtype=np.int64))
        assert [layer.num_edges for layer in support.layers] == \
            [0] * graph.depth
        assert [support.layer_size(level) for level in range(4)] == \
            [graph.layer_size(level) for level in range(4)]


_K = {"int": lambda depth: 5, "none": lambda depth: None,
      "schedule": lambda depth: [5, None, 3][:depth]}


@pytest.mark.parametrize(
    "depth,k,attention,dropout,sampler",
    list(itertools.product([1, 2, 3], sorted(_K), [True, False],
                           [0.0, 0.3], ["ppr", "random"])))
def test_step_matches_whole_graph_step(split, depth, k, attention, dropout,
                                       sampler):
    """Three batches at the initial parameters: random streams equal,
    loss and reads bitwise (see the module doc), gradients within
    ``RTOL``."""
    ours, oracle = (_recommender(split, depth, _K[k](depth), attention,
                                 dropout, sampler) for _ in range(2))
    our_reads, oracle_reads = _record_reads(ours), _record_reads(oracle)
    for users in _batches(split, 3):
        ours.model.zero_grad()
        oracle.model.zero_grad()
        our_reads.clear()
        oracle_reads.clear()
        loss = ours._train_step(users, split)
        expected = reference_train_step(oracle, users, split)
        assert _streams(ours) == _streams(oracle)
        support = our_reads[0][0]
        exact = all(layer.num_edges != 1 for layer in support.layers)
        _assert_close(loss.data, expected.data, exact)
        for (_, mine), (_, theirs) in zip(our_reads, oracle_reads):
            _assert_close(mine, theirs, exact)
        loss.backward()
        expected.backward()
        for mine, theirs in zip(ours.model.parameters(),
                                oracle.model.parameters()):
            assert (mine.grad is None) == (theirs.grad is None), mine.name
            if theirs.grad is not None:
                _assert_close(mine.grad, theirs.grad, exact=False)


def test_support_edges_counter_counts_the_propagated_edges(lastfm_split):
    rec = _recommender(lastfm_split, depth=3)
    users = _batches(lastfm_split, 1)[0]
    graph = rec._graph_for(users)
    propagated = []
    original = rec.model.propagate

    def propagate(graph, **kwargs):
        propagated.append(graph.total_edges())
        return original(graph, **kwargs)

    rec.model.propagate = propagate
    tm.reset()
    with tm.enabled():
        rec._train_step(users, lastfm_split)
    counted = tm.get_registry().snapshot()["counters"]["train.support_edges"]
    tm.reset()
    assert counted["total"] == propagated[0]
    assert 0 < propagated[0] < graph.total_edges()


class TestEmptyRestriction:
    """Pairs that reach no last-layer row: a depth-2 graph ends at an
    item only through an item-to-item KG edge, so most batches' do not."""

    def _empty_batch(self, split, rec):
        for users in _batches(split, 4):
            state = rec._rng.bit_generator.state
            slots, pos, neg = rec._sample_pairs(users, split)
            rec._rng.bit_generator.state = state
            graph = rec._graph_for(users)
            rows = graph.rows_for_pairs(graph.depth,
                                        np.concatenate([slots, slots]),
                                        np.concatenate([pos, neg]))
            if slots.size and not (rows >= 0).any():
                return users
        pytest.fail("no batch with an empty restriction")

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_zero_gradients_and_the_same_adam_step(self, lastfm_split,
                                                    dropout):
        ours, oracle = (_recommender(lastfm_split, depth=2, dropout=dropout)
                        for _ in range(2))
        users = self._empty_batch(lastfm_split, ours)
        self._empty_batch(lastfm_split, oracle)
        optimizers = [Adam(rec.model.parameters(), lr=0.01,
                           weight_decay=1e-4) for rec in (ours, oracle)]
        loss = ours._train_step(users, lastfm_split)
        expected = reference_train_step(oracle, users, lastfm_split)
        assert loss.data.tobytes() == expected.data.tobytes()
        assert float(loss.data) == np.log(2.0)
        loss.backward()
        expected.backward()
        for param in ours.model.parameters():
            assert param.grad is not None, param.name
            assert not param.grad.any() and not np.signbit(param.grad).any()
        for optimizer in optimizers:
            optimizer.step()
        ours_adam, oracle_adam = optimizers
        for arrays in ("_m", "_v"):
            for mine, theirs in zip(getattr(ours_adam, arrays),
                                    getattr(oracle_adam, arrays)):
                assert mine.tobytes() == theirs.tobytes()
        for mine, theirs in zip(ours.model.parameters(),
                                oracle.model.parameters()):
            assert mine.data.tobytes() == theirs.data.tobytes()
        assert _streams(ours) == _streams(oracle)

    def test_batch_without_pairs_keeps_the_streams(self):
        split = new_user_split(lastfm_like(seed=0, scale=0.15), seed=0)
        trained = set(split.train.users_with_interactions())
        cold = tuple(user for user in range(split.dataset.num_users)
                     if user not in trained)[:3]
        assert cold
        ours, oracle = (_recommender(split, depth=2, dropout=0.3)
                        for _ in range(2))
        assert ours._train_step(cold, split) is None
        assert reference_train_step(oracle, cold, split) is None
        assert _streams(ours) == _streams(oracle)


def test_depth2_fit_matches_whole_graph_fit_bitwise(lastfm_split):
    """Most of these steps' restrictions are empty; the rest reach a
    few rows.  Per-epoch losses must not move by a bit."""
    config = dict(dim=8, depth=2, seed=0)
    train = dict(epochs=3, k=5, batch_users=4, seed=0)
    ours = KUCNetRecommender(KUCNetConfig(**config), TrainConfig(**train))
    oracle = WholeGraphRecommender(KUCNetConfig(**config),
                                   TrainConfig(**train))
    tm.reset()
    with tm.enabled():
        ours.fit(lastfm_split)
    counters = tm.get_registry().snapshot()["counters"]
    tm.reset()
    oracle.fit(lastfm_split)
    assert [stats.loss for stats in ours.history] == \
        [stats.loss for stats in oracle.history]
    assert counters["train.support_edges"]["total"] > 0

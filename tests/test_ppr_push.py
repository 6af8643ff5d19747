"""Tests for the sparse forward-push PPR engine (repro/ppr/push.py).

Covers the Andersen-Chung-Lang accuracy guarantee (small epsilon
approaches the converged power iteration), the active-set sweep against
the dense sweep it replaced (zero tolerance, float64 state), the
one-workspace chunk loop against the fresh-zeros loop it replaced, the
``SparsePPRScores`` CSR storage (lookup / select / densify / degree
normalization), and end-to-end trainer equivalence between the two
backends.
"""

import contextlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
from repro.data import lastfm_like, traditional_split
from repro.graph import CollaborativeKG, KnowledgeGraph, UserItemGraph
from repro.ppr import (SparsePPRScores, concat_sparse_scores,
                       forward_push_batch, forward_push_sharded,
                       incremental_push, personalized_pagerank_batch, push,
                       sparsify_scores)
from repro.ppr.push import CSR_FIELDS, RES_FIELDS, _to_csr, _to_dense

from .reference_ops import reference_forward_push_batch, reference_sweep_chunk
from .test_ppr_incremental import _fresh_pairs, _random_graph


@pytest.fixture
def ckg():
    ui = UserItemGraph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)])
    kg = KnowledgeGraph(6, 2, [(0, 0, 4), (1, 0, 4), (2, 1, 5), (3, 1, 5)])
    return CollaborativeKG.build(ui, kg)


def _random_ckg(seed: int) -> CollaborativeKG:
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
    return CollaborativeKG.build(ui, kg)


class TestForwardPush:
    def test_matches_converged_power_iteration(self, ckg):
        truth = personalized_pagerank_batch(ckg, [0, 1, 2], iterations=500,
                                            tolerance=1e-14)
        push = forward_push_batch(ckg, [0, 1, 2], epsilon=1e-8,
                                  top_m=ckg.num_nodes)
        for user in (0, 1, 2):
            np.testing.assert_allclose(push.for_user(user),
                                       truth.for_user(user), atol=1e-5)

    def test_push_underestimates(self, ckg):
        # Forward push never overshoots: the estimate is a lower bound on
        # the true PPR vector (the invariant p + sum r_u * ppr_u = ppr).
        truth = personalized_pagerank_batch(ckg, [0], iterations=500,
                                            tolerance=1e-14)
        push = forward_push_batch(ckg, [0], epsilon=1e-3,
                                  top_m=ckg.num_nodes)
        assert np.all(push.for_user(0) <= truth.for_user(0) + 1e-6)
        assert push.residual >= 0.0

    def test_restart_node_dominates(self, ckg):
        push = forward_push_batch(ckg, [1])
        scores = push.for_user(1)
        assert scores[ckg.user_node(1)] == scores.max()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_small_epsilon_matches_power_top_k(self, seed):
        """Property: push top-K carries (almost) the converged top-K mass.

        Compared by mass, not by exact node sets — ties among equal-score
        nodes make set equality flaky while the retained mass is stable.
        """
        graph = _random_ckg(seed)
        users = list(range(graph.num_users))
        truth = personalized_pagerank_batch(graph, users, iterations=500,
                                            tolerance=1e-14)
        push = forward_push_batch(graph, users, epsilon=1e-8,
                                  top_m=graph.num_nodes)
        k = min(10, graph.num_nodes)
        for user in users:
            exact = truth.for_user(user)
            approx = push.for_user(user)
            top_truth = np.sort(exact)[-k:].sum()
            top_push = exact[np.argsort(approx)[-k:]].sum()
            assert top_push >= top_truth - 1e-5

    def test_top_m_truncation_keeps_largest(self, ckg):
        full = forward_push_batch(ckg, [0], epsilon=1e-8,
                                  top_m=ckg.num_nodes)
        truncated = forward_push_batch(ckg, [0], epsilon=1e-8, top_m=3)
        dense = full.for_user(0)
        kept = truncated.for_user(0)
        assert truncated.nnz <= 3
        # The retained entries are the 3 globally largest scores.
        expected = np.sort(dense)[-3:]
        np.testing.assert_allclose(np.sort(kept[kept > 0]), expected,
                                   rtol=1e-6)

    def test_validation(self, ckg):
        with pytest.raises(ValueError):
            forward_push_batch(ckg, [])
        with pytest.raises(ValueError):
            forward_push_batch(ckg, [0], alpha=0.0)
        with pytest.raises(ValueError):
            forward_push_batch(ckg, [0], epsilon=0.0)
        with pytest.raises(ValueError):
            forward_push_batch(ckg, [0], top_m=0)


class _BincountSpy:
    """Stands in for ``numpy`` inside ``repro.ppr.push`` and records the
    ``minlength`` of every ``bincount``: the chunk's cell count on the
    dense path, the number of distinct target cells on the sparse one."""

    def __init__(self):
        self.minlengths = []

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, *args, **kwargs):
        self.minlengths.append(kwargs["minlength"])
        return np.bincount(*args, **kwargs)


@contextlib.contextmanager
def _checked_sweeps():
    """Check every ``_sweep_chunk`` call against the dense reference.

    The reference runs on copies of the call's input, and the float64
    estimate and residual, the op count and ``touched`` must be equal
    with no tolerance.  Yields a counter of the sweeps per path, of the
    signed calls, and of those that started with a negative residual.
    """
    sweep = push._sweep_chunk
    spy = _BincountSpy()
    taken = Counter()

    def checked(ckg, estimate, residual, *args, signed=False, touched=None):
        taken["signed"] += signed
        taken["negative"] += bool((residual < 0).any())
        expected = [estimate.copy(), residual.copy(),
                    None if touched is None else touched.copy()]
        want = reference_sweep_chunk(ckg, expected[0], expected[1], *args,
                                     signed=signed, touched=expected[2])
        first = len(spy.minlengths)
        ops = sweep(ckg, estimate, residual, *args, signed=signed,
                    touched=touched)
        for minlength in spy.minlengths[first:]:
            taken["dense" if minlength == residual.size else "sparse"] += 1
        assert ops == want
        assert np.array_equal(estimate, expected[0])
        assert np.array_equal(residual, expected[1])
        if touched is not None:
            assert np.array_equal(touched, expected[2])
        return ops

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(push, "np", spy)
        patch.setattr(push, "_sweep_chunk", checked)
        yield taken


@pytest.fixture(scope="module")
def lastfm_ckg():
    dataset = lastfm_like(seed=0, scale=0.3)
    return dataset.build_ckg(traditional_split(dataset, seed=0).train)


class TestSweepOracle:
    """The active-set sweep is bitwise the dense sweep, on both paths.

    The float32 CSR outputs would hide a change in float64 summation
    order, so the oracle compares the solver's float64 chunk state.
    """

    def test_restart_chunks(self, lastfm_ckg):
        with _checked_sweeps() as taken:
            forward_push_batch(lastfm_ckg, range(lastfm_ckg.num_users),
                               chunk_users=64, keep_residuals=True)
        assert taken["sparse"] > 0 and taken["dense"] > 0

    @pytest.mark.parametrize("chunk, interactions", [(4, 6), (64, 30)])
    def test_signed_chunks_after_corrections(self, lastfm_ckg, chunk,
                                             interactions):
        users = range(lastfm_ckg.num_users)
        base = forward_push_batch(lastfm_ckg, users, chunk_users=64,
                                  keep_residuals=True)
        pairs = _fresh_pairs(lastfm_ckg, seed=3, count=interactions)
        with _checked_sweeps() as taken:
            incremental_push(lastfm_ckg, base, pairs, chunk_users=chunk)
        assert taken["signed"] > 0 and taken["negative"] > 0
        assert taken["sparse"] > 0 and taken["dense"] > 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), chunk=st.integers(1, 7),
           epsilon=st.sampled_from([1e-2, 1e-3, 1e-4, 1e-6]))
    def test_random_graphs(self, seed, chunk, epsilon):
        _, _, graph = _random_graph(seed)
        users = range(graph.num_users)
        with _checked_sweeps():
            base = forward_push_batch(graph, users, epsilon=epsilon,
                                      chunk_users=chunk, keep_residuals=True)
            incremental_push(graph, base, _fresh_pairs(graph, seed, 2),
                             chunk_users=chunk)


def _with_counters(solve):
    """``solve()`` under fresh telemetry: ``(result, counter totals)``."""
    telemetry.reset()
    telemetry.enable()
    try:
        result = solve()
        counters = {name: record["total"] for name, record
                    in telemetry.get_registry().snapshot()["counters"].items()}
    finally:
        telemetry.disable()
        telemetry.reset()
    return result, counters


class TestPushWorkspace:
    """One estimate / residual pair serves every chunk of a solve, and
    the solve is bitwise the fresh-zeros chunk loop it replaced."""

    @pytest.mark.parametrize("store", ["ram", "mmap"])
    @pytest.mark.parametrize("keep_residuals", [False, True])
    @pytest.mark.parametrize("top_m", [8, 256])
    @pytest.mark.parametrize("num_users, chunk", [
        (None, 16),   # every user: 60 = 3 x 16 + a partial chunk of 12
        (5, 64),      # fewer users than chunk_users
    ])
    def test_matches_fresh_zeros_loop(self, lastfm_ckg, tmp_path, store,
                                      keep_residuals, top_m, num_users,
                                      chunk):
        graph = lastfm_ckg
        users = list(range(num_users or graph.num_users))
        options = dict(epsilon=1e-4, top_m=top_m, chunk_users=chunk,
                       keep_residuals=keep_residuals)
        seen = []
        sweep = push._sweep_chunk

        def spy(ckg, estimate, residual, *args, **kwargs):
            seen.append((estimate, residual))
            return sweep(ckg, estimate, residual, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(push, "_sweep_chunk", spy)
            if store == "ram":
                got, counters = _with_counters(
                    lambda: forward_push_batch(graph, users, **options))
            else:
                got, counters = _with_counters(
                    lambda: forward_push_sharded(
                        graph, users, str(tmp_path / "scores"), **options))
        want, want_counters = _with_counters(
            lambda: reference_forward_push_batch(graph, users, **options))

        for name in ("ppr.push_ops", "ppr.users"):
            assert counters[name] == want_counters[name], name
        assert got.residual == want.residual
        parts = [got] if store == "ram" else list(got.parts())
        assert len(parts) == (1 if store == "ram"
                              else -(-len(users) // chunk))
        solved = concat_sparse_scores(parts)
        assert solved.has_residuals == want.has_residuals == keep_residuals
        fields = ("users",) + CSR_FIELDS + (RES_FIELDS if keep_residuals
                                            else ())
        workspace = [seen[0][0].base, seen[0][1].base]
        assert workspace[0].shape == workspace[1].shape \
            == (min(chunk, len(users)), graph.num_nodes)
        for estimate, residual in seen:
            assert estimate.base is workspace[0]
            assert residual.base is workspace[1]
        for name in fields:
            array, expected = getattr(solved, name), getattr(want, name)
            assert array.dtype == expected.dtype, name
            assert np.array_equal(array, expected), name
            for part in parts:
                for buffer in workspace:
                    assert not np.shares_memory(getattr(part, name),
                                                buffer), name

    def test_bad_parameters_rejected_before_any_shard(self, lastfm_ckg,
                                                      tmp_path):
        directory = tmp_path / "scores"
        for options in (dict(alpha=0.0), dict(epsilon=0.0), dict(top_m=0),
                        dict(chunk_users=0)):
            with pytest.raises(ValueError):
                forward_push_sharded(lastfm_ckg, [0, 1], str(directory),
                                     **options)
        assert not directory.exists()


class TestSparseScores:
    @pytest.fixture
    def scores(self):
        # Two rows over 10 nodes: row 0 holds {2: .5, 7: .25},
        # row 1 holds {0: .125, 9: .0625}.
        return SparsePPRScores(
            users=np.array([4, 11]), num_nodes=10,
            indptr=np.array([0, 2, 4]),
            node_ids=np.array([2, 7, 0, 9]),
            values=np.array([0.5, 0.25, 0.125, 0.0625], dtype=np.float32))

    def test_lookup_hits(self, scores):
        out = scores.lookup(np.array([0, 0, 1, 1]), np.array([2, 7, 0, 9]))
        np.testing.assert_array_equal(out, [0.5, 0.25, 0.125, 0.0625])

    def test_lookup_misses_are_zero(self, scores):
        out = scores.lookup(np.array([0, 1, 0]), np.array([3, 2, 0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_lookup_out_of_order_and_repeated(self, scores):
        out = scores.lookup(np.array([1, 0, 1, 0, 0]),
                            np.array([9, 7, 9, 2, 5]))
        np.testing.assert_array_equal(out, [0.0625, 0.25, 0.0625, 0.5, 0.0])

    def test_lookup_float32_round_trip(self, scores):
        out = scores.lookup(np.array([0]), np.array([2]))
        assert out.dtype == np.float32
        assert out[0] == np.float32(0.5)

    def test_lookup_empty_query(self, scores):
        assert scores.lookup(np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64)).size == 0

    def test_for_user_and_has_user(self, scores):
        dense = scores.for_user(4)
        assert dense.shape == (10,)
        assert dense[2] == np.float32(0.5)
        assert dense.sum() == np.float32(0.75)
        assert scores.has_user(11)
        assert not scores.has_user(0)
        with pytest.raises(KeyError):
            scores.for_user(0)

    def test_toarray_matches_lookup(self, scores):
        dense = scores.toarray()
        assert dense.shape == (2, 10)
        slots = np.repeat([0, 1], 10)
        nodes = np.tile(np.arange(10), 2)
        np.testing.assert_array_equal(dense.ravel(),
                                      scores.lookup(slots, nodes))

    def test_dense_columns(self, scores):
        cols = scores.dense_columns(np.array([2, 0, 9]))
        np.testing.assert_array_equal(
            cols, [[0.5, 0.0, 0.0], [0.0, 0.125, 0.0625]])

    def test_select_reorders_rows(self, scores):
        sub = scores.select([11, 4])
        np.testing.assert_array_equal(sub.users, [11, 4])
        np.testing.assert_array_equal(sub.toarray(),
                                      scores.toarray()[[1, 0]])

    def test_select_unknown_user_raises(self, scores):
        with pytest.raises(KeyError):
            scores.select([99])

    def test_select_error_names_all_missing_users(self, scores):
        # Regression: a miss used to surface as an opaque KeyError from
        # the internal row map; now every offender is named up front.
        with pytest.raises(KeyError, match=r"user\(s\) \[7, 99\]"):
            scores.select([4, 99, 7])

    def test_lookup_rejects_mismatched_lengths(self, scores):
        with pytest.raises(ValueError, match="slots"):
            scores.lookup(np.array([0, 1]), np.array([2]))

    def test_lookup_names_out_of_range_slot_and_node(self, scores):
        # Regression: out-of-range queries used to garbage-index the
        # CSR; now the first offender is named.
        with pytest.raises(IndexError, match="slot 5"):
            scores.lookup(np.array([0, 5]), np.array([2, 2]))
        with pytest.raises(IndexError, match="node 10"):
            scores.lookup(np.array([0, 0]), np.array([2, 10]))
        with pytest.raises(IndexError):
            scores.lookup(np.array([-3]), np.array([2]))

    def test_nbytes_and_nnz(self, scores):
        assert scores.nnz == 4
        dense_bytes = 2 * 10 * 8
        assert scores.nbytes < dense_bytes

    def test_sparsify_round_trip(self, ckg):
        batch = personalized_pagerank_batch(ckg, [0, 2])
        sparse = sparsify_scores(batch.scores, [0, 2],
                                 top_m=ckg.num_nodes)
        np.testing.assert_allclose(sparse.toarray(), batch.scores,
                                   atol=1e-7)
        np.testing.assert_array_equal(sparse.users, [0, 2])


def _row_loop_csr(dense, top_m):
    """Reference: the per-row encoding the solvers used before ``_to_csr``."""
    nodes, values, lengths = [], [], []
    for row in range(dense.shape[0]):
        kept = np.flatnonzero(dense[row])
        if top_m is not None and kept.size > top_m:
            top = np.argpartition(-dense[row, kept], top_m - 1)[:top_m]
            kept = np.sort(kept[top])
        nodes.append(kept)
        values.append(dense[row, kept].astype(np.float32))
        lengths.append(kept.size)
    return (np.concatenate([[0], np.cumsum(lengths)]),
            np.concatenate(nodes), np.concatenate(values))


class TestCSREncoding:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), top_m=st.none() | st.integers(1, 6))
    def test_to_csr_matches_row_loop(self, seed, top_m):
        """Bitwise equal to the per-row loop, truncation ties included."""
        rng = np.random.default_rng(seed)
        dense = rng.choice([0.0, 0.0, 0.25, 0.5, rng.random()],
                           size=(int(rng.integers(1, 6)), 9))
        expected = _row_loop_csr(dense, top_m)
        got = _to_csr(dense, top_m)
        for a, b in zip(expected, got):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        if top_m is None:
            np.testing.assert_array_equal(
                _to_dense(*got, num_nodes=9, dtype=np.float32),
                dense.astype(np.float32))


class TestTrainerEquivalence:
    def test_fit_and_score_users_parity(self):
        """Power and push backends produce near-identical recommendations."""
        split = traditional_split(lastfm_like(seed=0, scale=0.25), seed=0)

        def train(method):
            rec = KUCNetRecommender(
                KUCNetConfig(dim=8, depth=3, seed=0),
                TrainConfig(epochs=1, k=10, seed=0, ppr_method=method))
            rec.fit(split)
            return rec

        power = train("power")
        push = train("push")
        users = list(range(min(12, split.train.num_users)))
        scores_a = power.score_users(users)
        scores_b = push.score_users(users)
        assert scores_a.shape == scores_b.shape
        overlaps = []
        for row_a, row_b in zip(scores_a, scores_b):
            top_a = set(np.argsort(row_a)[-10:].tolist())
            top_b = set(np.argsort(row_b)[-10:].tolist())
            overlaps.append(len(top_a & top_b) / 10.0)
        assert float(np.mean(overlaps)) >= 0.7, overlaps

    def test_push_backend_stores_sparse(self):
        split = traditional_split(lastfm_like(seed=0, scale=0.25), seed=0)
        rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=2, seed=0),
            TrainConfig(epochs=1, k=10, seed=0, ppr_method="push",
                        ppr_top_m=64, ppr_store="ram"))
        rec.fit(split)
        assert isinstance(rec.ppr_scores, SparsePPRScores)
        per_user = np.diff(rec.ppr_scores.indptr)
        assert per_user.max() <= 64

    def test_unknown_method_rejected(self):
        split = traditional_split(lastfm_like(seed=0, scale=0.25), seed=0)
        rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=2, seed=0),
            TrainConfig(epochs=1, k=10, seed=0, ppr_method="jacobi"))
        with pytest.raises(ValueError):
            rec.fit(split)

"""Tests for functional ops: gathers, segment reductions, losses."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import (Tensor, binary_cross_entropy_with_logits, bpr_loss,
                            check_gradients, concat, gather_rows, l2_penalty,
                            log_sigmoid, segment_max, segment_softmax,
                            segment_sum, softmax, stack)
from repro.autodiff import tensor as tensor_module
from repro.autodiff.ops import dropout
from repro.autodiff.tensor import scatter_add_rows

RNG = np.random.default_rng(1)


def make(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


def add_at_reference(index, values, num_rows):
    """The oracle: ``np.add.at`` into fresh zeros."""
    out = np.zeros((num_rows,) + values.shape[np.ndim(index):])
    with np.errstate(invalid="ignore", over="ignore"):
        np.add.at(out, index, values)
    return out


def both_paths(index, values, num_rows):
    """``scatter_add_rows`` forced through its sparse, then its bincount path."""
    outs = []
    for threshold in (0, np.iinfo(np.int64).max):
        with mock.patch.object(tensor_module, "SPARSE_SCATTER_MIN_ELEMENTS",
                               threshold):
            outs.append(scatter_add_rows(index, values, num_rows))
    return outs


def bits(array):
    """Raw bytes with every NaN canonicalised.

    IEEE 754 leaves open which NaN survives when two meet (``inf - inf``
    makes a default NaN of its own), so only NaN *positions* are
    compared; every other value, signed zeros included, is bit-exact.
    """
    return np.where(np.isnan(array), np.nan, array).tobytes()


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e308, -1e308,
           5e-324]


@st.composite
def scatter_cases(draw):
    num_rows = draw(st.integers(1, 6))
    # (40,) and (6, 7) put many edges in each row, where a change of
    # summation order would show.
    index_shape = draw(st.sampled_from([(0,), (1,), (7,), (40,), (3, 4),
                                        (6, 7)]))
    index = draw(hnp.arrays(np.int64, index_shape,
                            elements=st.integers(0, num_rows - 1)))
    if draw(st.booleans()):
        index = np.sort(index, axis=None).reshape(index_shape)
    tail = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    # Half the cases stay finite: a NaN or inf in a row would hide any
    # change of summation order.
    elements = st.floats(-1e3, 1e3)
    if draw(st.booleans()):
        elements = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
    values = draw(hnp.arrays(np.float64, index_shape + tail,
                             elements=elements, fill=st.nothing()))
    return index, values, num_rows


class TestScatterAddRows:
    @settings(max_examples=200, deadline=None)
    @given(scatter_cases())
    def test_matches_add_at_bitwise(self, case):
        index, values, num_rows = case
        expected = add_at_reference(index, values, num_rows)
        for out in both_paths(index, values, num_rows):
            assert out.shape == expected.shape and out.dtype == expected.dtype
            assert bits(out) == bits(expected)

    @pytest.mark.parametrize("tail", [(), (3,)])
    def test_sums_in_edge_order(self, tail):
        # Float addition is not associative: many repeats per row only
        # match np.add.at if each row is summed in edge order.
        rng = np.random.default_rng(3)
        index = rng.integers(0, 7, size=500)
        values = rng.normal(size=(500,) + tail) * 10.0 ** rng.integers(
            -8, 8, size=(500,) + tail)
        expected = add_at_reference(index, values, 7).tobytes()
        for out in both_paths(index, values, 7):
            assert out.tobytes() == expected

    def test_signed_zero_rows(self):
        # +0.0 + -0.0 is +0.0; an untouched row stays +0.0.
        index = np.array([0, 0, 2])
        for values in (np.array([-0.0, -0.0, -0.0]), np.full((3, 2), -0.0)):
            expected = add_at_reference(index, values, 3).tobytes()
            for out in both_paths(index, values, 3):
                assert out.tobytes() == expected

    @pytest.mark.parametrize("bad", [-1, 4, 100])
    @pytest.mark.parametrize("tail", [(), (2,)])
    def test_out_of_range_raises(self, bad, tail):
        index = np.array([0, bad, 1])
        with pytest.raises(IndexError):
            scatter_add_rows(index, np.ones((3,) + tail), 4)


class TestGatherScatter:
    def test_gather_forward(self):
        x = make((5, 3))
        idx = np.array([0, 2, 2, 4])
        out = gather_rows(x, idx)
        assert np.allclose(out.data, x.data[idx])

    def test_gather_grad_accumulates_duplicates(self):
        x = make((5, 3))
        idx = np.array([1, 1, 1])
        gather_rows(x, idx).sum().backward()
        assert np.allclose(x.grad[1], 3.0)
        assert np.allclose(x.grad[0], 0.0)

    def test_gather_grad_with_2d_index(self):
        x = make((5, 3))
        idx = np.array([[0, 2], [2, 4], [1, 1]])
        out = gather_rows(x, idx)
        assert out.shape == (3, 2, 3)
        upstream = RNG.normal(size=out.shape)
        out.backward(upstream)
        assert x.grad.tobytes() == add_at_reference(idx, upstream, 5).tobytes()

    def test_gather_gradcheck(self):
        x = make((4, 2))
        idx = np.array([0, 3, 3, 1, 2])
        check_gradients(lambda: (gather_rows(x, idx) ** 2.0).sum(), [x])

    def test_segment_sum_forward(self):
        x = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        seg = np.array([0, 0, 2, 2])
        out = segment_sum(x, seg, 3)
        assert out.shape == (3, 2)
        assert np.allclose(out.data[0], x.data[0] + x.data[1])
        assert np.allclose(out.data[1], 0.0)
        assert np.allclose(out.data[2], x.data[2] + x.data[3])

    def test_segment_sum_gradcheck(self):
        x = make((5, 2))
        seg = np.array([0, 1, 1, 0, 2])
        check_gradients(lambda: (segment_sum(x, seg, 3) ** 2.0).sum(), [x])

    def test_segment_sum_length_mismatch_raises(self):
        x = make((4, 2))
        with pytest.raises(ValueError):
            segment_sum(x, np.array([0, 1]), 2)

    def test_segment_max_forward(self):
        x = Tensor(np.array([[1.0], [5.0], [2.0]]), requires_grad=True)
        out = segment_max(x, np.array([0, 0, 1]), 2)
        assert out.data[0, 0] == 5.0
        assert out.data[1, 0] == 2.0

    def test_segment_softmax_sums_to_one(self):
        x = make((6,))
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = segment_softmax(x, seg, 3)
        sums = np.bincount(seg, weights=out.data, minlength=3)
        assert np.allclose(sums, 1.0)

    def test_segment_softmax_gradcheck(self):
        x = make((5,))
        seg = np.array([0, 0, 1, 1, 1])
        check_gradients(lambda: (segment_softmax(x, seg, 2) * segment_softmax(x, seg, 2)).sum(),
                        [x], atol=1e-4)


class TestShapeOps:
    def test_concat_forward_and_grad(self):
        a, b = make((2, 3)), make((4, 3))
        out = concat([a, b], axis=0)
        assert out.shape == (6, 3)
        check_gradients(lambda: (concat([a, b], axis=0) ** 2.0).sum(), [a, b])

    def test_concat_axis1(self):
        a, b = make((2, 3)), make((2, 2))
        assert concat([a, b], axis=1).shape == (2, 5)

    def test_stack(self):
        a, b = make((3,)), make((3,))
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        check_gradients(lambda: (stack([a, b]) ** 2.0).sum(), [a, b])


class TestActivationsAndLosses:
    def test_softmax_rows_sum_to_one(self):
        x = make((4, 6))
        assert np.allclose(softmax(x, axis=-1).data.sum(axis=-1), 1.0)

    def test_softmax_gradcheck(self):
        x = make((3, 4))
        check_gradients(lambda: (softmax(x) * softmax(x)).sum(), [x], atol=1e-4)

    def test_log_sigmoid_stable(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        y = log_sigmoid(x).data
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(-1000.0)
        assert y[2] == pytest.approx(0.0, abs=1e-12)

    def test_bpr_loss_value(self):
        pos = Tensor(np.array([2.0]))
        neg = Tensor(np.array([0.0]))
        expected = -np.log(1.0 / (1.0 + np.exp(-2.0)))
        assert bpr_loss(pos, neg).item() == pytest.approx(expected)

    def test_bpr_loss_decreases_with_margin(self):
        neg = Tensor(np.zeros(4))
        low = bpr_loss(Tensor(np.full(4, 0.1)), neg).item()
        high = bpr_loss(Tensor(np.full(4, 3.0)), neg).item()
        assert high < low

    def test_bpr_gradcheck(self):
        pos, neg = make((6,)), make((6,))
        check_gradients(lambda: bpr_loss(pos, neg), [pos, neg])

    def test_bce_with_logits_matches_naive(self):
        logits = make((8,))
        labels = (RNG.random(8) > 0.5).astype(float)
        loss = binary_cross_entropy_with_logits(logits, labels).item()
        p = 1.0 / (1.0 + np.exp(-logits.data))
        naive = -(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean()
        assert loss == pytest.approx(naive)

    def test_bce_gradcheck(self):
        logits = make((5,))
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        check_gradients(lambda: binary_cross_entropy_with_logits(logits, labels), [logits])

    def test_l2_penalty(self):
        a, b = make((2, 2)), make((3,))
        value = l2_penalty([a, b]).item()
        assert value == pytest.approx((a.data**2).sum() + (b.data**2).sum())

    def test_l2_penalty_empty(self):
        assert l2_penalty([]).item() == 0.0


class TestDropout:
    def test_eval_mode_identity(self):
        x = make((10, 10))
        out = dropout(x, 0.5, training=False)
        assert out is x

    def test_training_zeroes_and_rescales(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((200, 50)))
        out = dropout(x, 0.5, training=True, rng=rng)
        zero_fraction = (out.data == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        surviving = out.data[out.data != 0]
        assert np.allclose(surviving, 2.0)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            dropout(make((2,)), 1.0, training=True)

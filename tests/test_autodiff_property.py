"""Property-based gradient checks with hypothesis.

Random compositions of engine ops must match finite-difference gradients.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import (Tensor, check_gradients, gather_rows,
                            segment_max, segment_softmax, segment_sum,
                            softmax, where)

from .reference_ops import reference_segment_softmax


finite_floats = st.floats(min_value=-3.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False)


@st.composite
def grad_into(draw):
    """A parameter shape and a ``grad`` broadcastable into it, with any
    float (±0, ±inf, NaN payloads, subnormals) as elements."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=4))
    keep = draw(st.lists(st.booleans(), min_size=len(shape),
                         max_size=len(shape)))
    lead = draw(st.integers(0, len(shape)))
    grad_shape = tuple(side if kept else 1
                       for side, kept in zip(shape, keep))[lead:]
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan,
                               -np.nan, 5e-324, -5e-324, 2.0 ** -1060])
    grad = draw(hnp.arrays(np.float64, grad_shape,
                           elements=st.one_of(special, st.floats())))
    return shape, grad


@settings(max_examples=200, deadline=None)
@given(grad_into())
def test_first_gradient_bits_match_zero_fill_then_add(case):
    shape, grad = case
    tensor = Tensor(np.ones(shape), requires_grad=True)
    tensor._accumulate_grad(grad)
    expected = np.zeros_like(tensor.data)
    expected += grad
    assert tensor.grad.shape == expected.shape
    assert np.array_equal(tensor.grad.view(np.uint64),
                          expected.view(np.uint64))


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=finite_floats)


@settings(max_examples=25, deadline=None)
@given(arrays((3, 4)), arrays((3, 4)))
def test_elementwise_chain_grad(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    check_gradients(lambda: ((ta * tb).tanh() + ta.sigmoid()).sum(), [ta, tb],
                    atol=1e-4, rtol=1e-3)


@settings(max_examples=25, deadline=None)
@given(arrays((3, 4)), arrays((4, 2)))
def test_matmul_chain_grad(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    check_gradients(lambda: ((ta @ tb).sigmoid() ** 2.0).sum(), [ta, tb],
                    atol=1e-4, rtol=1e-3)


@settings(max_examples=25, deadline=None)
@given(arrays((6, 3)),
       hnp.arrays(np.int64, (6,), elements=st.integers(min_value=0, max_value=3)))
def test_segment_sum_grad(x, seg):
    tx = Tensor(x, requires_grad=True)
    check_gradients(lambda: (segment_sum(tx, seg, 4).tanh() ** 2.0).sum(), [tx],
                    atol=1e-4, rtol=1e-3)


@settings(max_examples=25, deadline=None)
@given(arrays((5, 2)),
       hnp.arrays(np.int64, (7,), elements=st.integers(min_value=0, max_value=4)))
def test_gather_grad(x, idx):
    tx = Tensor(x, requires_grad=True)
    check_gradients(lambda: (gather_rows(tx, idx).sigmoid()).sum(), [tx],
                    atol=1e-4, rtol=1e-3)


@settings(max_examples=25, deadline=None)
@given(arrays((4, 5)))
def test_softmax_preserves_probability_mass(x):
    out = softmax(Tensor(x), axis=-1)
    assert np.allclose(out.data.sum(axis=-1), 1.0)
    assert np.all(out.data >= 0)


@settings(max_examples=25, deadline=None)
@given(arrays((8,)),
       hnp.arrays(np.int64, (8,), elements=st.integers(min_value=0, max_value=2)))
def test_segment_softmax_mass(x, seg):
    out = segment_softmax(Tensor(x), seg, 3)
    sums = np.bincount(seg, weights=out.data, minlength=3)
    present = np.unique(seg)
    assert np.allclose(sums[present], 1.0)


@settings(max_examples=20, deadline=None)
@given(arrays((3, 3)))
def test_grad_of_sum_is_ones(x):
    tx = Tensor(x, requires_grad=True)
    tx.sum().backward()
    assert np.allclose(tx.grad, 1.0)


@settings(max_examples=20, deadline=None)
@given(arrays((3, 4)), arrays((3, 4)))
def test_addition_commutes_in_grad(a, b):
    ta1 = Tensor(a, requires_grad=True)
    tb1 = Tensor(b, requires_grad=True)
    ((ta1 + tb1) * (ta1 + tb1)).sum().backward()
    ta2 = Tensor(a, requires_grad=True)
    tb2 = Tensor(b, requires_grad=True)
    ((tb2 + ta2) * (tb2 + ta2)).sum().backward()
    assert np.allclose(ta1.grad, ta2.grad)
    assert np.allclose(tb1.grad, tb2.grad)


# ----------------------------------------------------------------------
# segment_max / where / empty-segment segment_softmax gradients
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(arrays((7, 3)),
       hnp.arrays(np.int64, (7,), elements=st.integers(min_value=0, max_value=2)))
def test_segment_max_grad_with_fill_segments(x, seg):
    # num_segments=5 leaves segments 3 and 4 at the fill value; the
    # gradient must still match finite differences (zero into the fill).
    # Perturb toward distinct values so no tie straddles the fd epsilon.
    x = x + np.arange(x.size).reshape(x.shape) * 1e-3
    tx = Tensor(x, requires_grad=True)
    check_gradients(lambda: (segment_max(tx, seg, 5).tanh() ** 2.0).sum(),
                    [tx], atol=1e-4, rtol=1e-3)


def test_segment_max_tie_routes_grad_to_every_argmax():
    # Exact ties: the subgradient convention gives the full upstream
    # gradient to *each* maximal row (mask is an equality test, not a
    # partition) — pin that so a refactor cannot silently change it.
    x = Tensor(np.asarray([2.0, 2.0, 1.0, 5.0]), requires_grad=True)
    seg = np.asarray([0, 0, 0, 1])
    segment_max(x, seg, 2).sum().backward()
    assert np.array_equal(x.grad, np.asarray([1.0, 1.0, 0.0, 1.0]))


def test_segment_max_empty_segment_keeps_fill():
    x = Tensor(np.asarray([1.0, -4.0]), requires_grad=True)
    out = segment_max(x, np.asarray([0, 0]), 3, fill=-7.5)
    assert out.data[1] == -7.5 and out.data[2] == -7.5
    out.sum().backward()
    assert np.array_equal(x.grad, np.asarray([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(arrays((4, 3)), arrays((4, 3)),
       hnp.arrays(np.bool_, (4, 3), elements=st.booleans()))
def test_where_grad(a, b, condition):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    check_gradients(lambda: (where(condition, ta, tb).tanh() ** 2.0).sum(),
                    [ta, tb], atol=1e-4, rtol=1e-3)
    # the selected branch gets the gradient, the other exactly zero
    ta.zero_grad(); tb.zero_grad()
    where(condition, ta, tb).sum().backward()
    assert np.array_equal(ta.grad, condition.astype(np.float64))
    assert np.array_equal(tb.grad, 1.0 - condition.astype(np.float64))


@settings(max_examples=25, deadline=None)
@given(arrays((6,)),
       hnp.arrays(np.int64, (6,), elements=st.integers(min_value=0, max_value=2)))
def test_segment_softmax_grad_with_empty_segments(x, seg):
    # num_segments=5: at least two segments are empty; the op must stay
    # finite there and its gradient must match finite differences on
    # both the fused kernel and the reference composition.
    weights = Tensor(np.linspace(0.5, 2.0, 6))
    for op in (segment_softmax, reference_segment_softmax):
        tx = Tensor(x, requires_grad=True)
        out = op(tx, seg, 5)
        assert np.all(np.isfinite(out.data))
        check_gradients(lambda: (op(tx, seg, 5) * weights).sum(),
                        [tx], atol=1e-4, rtol=1e-3)

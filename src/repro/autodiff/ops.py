"""Functional operations on :class:`~repro.autodiff.tensor.Tensor`.

These cover the sparse-graph primitives that message passing needs
(``gather_rows``, ``segment_sum``), plus classic neural-network helpers
(softmax, dropout, concatenation, stable BPR loss terms).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..telemetry import tracer as _tracer
from .fused import fused_segment_softmax
from .tensor import Tensor, scatter_add_rows


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``x[indices]`` with a scatter-add backward pass.

    This is the autodiff analogue of an embedding lookup / edge-source
    gather: forward is fancy indexing on the first axis, backward adds
    each output-row gradient back into its source row (rows selected
    multiple times accumulate).
    """
    indices = np.asarray(indices, dtype=np.int64)
    if _tracer.STATE.enabled:
        _tracer.counter("autodiff.gather_rows")
        _tracer.counter("autodiff.gather_rows.rows", indices.size)
    out = Tensor(x.data[indices])

    def _backward():
        x._accumulate_grad(scatter_add_rows(indices, out.grad, x.data.shape[0]))

    return out._record((x,), _backward)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    ``out[s] = sum_{j : segment_ids[j] == s} x[j]``.  This is the
    aggregation step of Eq. (5) in the paper: messages on edges are summed
    into their destination nodes.  Backward is a gather.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape[0] != x.data.shape[0]:
        raise ValueError(
            f"segment_ids has length {segment_ids.shape[0]} but x has "
            f"{x.data.shape[0]} rows"
        )
    if _tracer.STATE.enabled:
        _tracer.counter("autodiff.segment_sum")
        _tracer.counter("autodiff.segment_sum.rows", segment_ids.size)
    out = Tensor(scatter_add_rows(segment_ids, x.data, num_segments))

    def _backward():
        x._accumulate_grad(out.grad[segment_ids])

    return out._record((x,), _backward)


def segment_max(x: Tensor, segment_ids: np.ndarray, num_segments: int, fill: float = -1e30) -> Tensor:
    """Per-segment maximum; gradient routes to the argmax rows."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_shape = (num_segments,) + x.data.shape[1:]
    out_data = np.full(out_shape, fill, dtype=x.data.dtype)
    np.maximum.at(out_data, segment_ids, x.data)
    out = Tensor(out_data)

    def _backward():
        mask = (x.data == out_data[segment_ids]).astype(x.data.dtype)
        x._accumulate_grad(mask * out.grad[segment_ids])

    return out._record((x,), _backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; backward splits the gradient."""
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward():
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad or tensor._parents:
                slicer = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate_grad(out.grad[tuple(slicer)])

    return out._record(tuple(tensors), _backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = list(tensors)
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))

    def _backward():
        grads = np.moveaxis(out.grad, axis, 0)
        for tensor, grad in zip(tensors, grads):
            if tensor.requires_grad or tensor._parents:
                tensor._accumulate_grad(grad)

    return out._record(tuple(tensors), _backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)
    out = Tensor(out_data)

    def _backward():
        dot = (out.grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate_grad(out_data * (out.grad - dot))

    return out._record((x,), _backward)


def segment_softmax(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax normalized within each segment (e.g. edges per node).

    One fused tape node (:func:`~repro.autodiff.fused.fused_segment_softmax`);
    empty segments carry no mass and no gradient.
    """
    return fused_segment_softmax(x, segment_ids, num_segments)


def dropout(x: Tensor, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero a ``rate`` fraction and rescale survivors."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return x * Tensor(mask)


def log_sigmoid(x: Tensor) -> Tensor:
    """Stable ``log(sigmoid(x)) = -softplus(-x)``, the BPR loss core."""
    return -((-x).softplus())


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian Personalized Ranking loss, Eq. (14) of the paper.

    ``L = -mean(log sigmoid(pos - neg))`` over the batch of (u, i+, i-)
    triplets.
    """
    return -log_sigmoid(pos_scores - neg_scores).mean()


def l2_penalty(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of squared entries of ``tensors`` (explicit L2 regularizer)."""
    total: Optional[Tensor] = None
    for tensor in tensors:
        term = (tensor * tensor).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``.

    ``condition`` is a fixed boolean array (not differentiated).
    """
    condition = np.asarray(condition, dtype=bool)
    mask = Tensor(condition.astype(np.float64))
    return a * mask + b * (1.0 - mask)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a fixed target array."""
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Stable ``BCE(sigmoid(logits), labels)`` for 0/1 label arrays.

    Uses the identity ``-[y log σ(x) + (1-y) log(1-σ(x))] = softplus(x) - x·y``,
    which never exponentiates a large positive number.
    """
    labels_t = Tensor(np.asarray(labels, dtype=np.float64))
    return (logits.softplus() - logits * labels_t).mean()

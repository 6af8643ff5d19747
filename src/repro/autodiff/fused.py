"""Fused message-passing super-ops for the Eq. 5-6 hot path.

The unfused composition of one KUCNet propagation layer builds ~16 tape
nodes — two gathers, two attention ``Linear``s (each with a transpose
node), add/ReLU, the attention matvec, sigmoid, reshape, the message
transform, a broadcast multiply, and the segment sum — and every one of
them materializes an ``(E, d)`` / ``(E, d_alpha)`` array that lives on
the tape until ``backward()`` finishes.  The ops here collapse each such
pattern into **one** tape node whose closure captures only the inputs
(which are alive anyway as graph parents) and the integer index arrays:
all per-edge intermediates are recomputed inside the backward pass
instead of being stored, so the peak tape footprint of a layer drops
from ~16 arrays to the single aggregated output.

Gradient derivations (sketch; ``g`` is the output gradient):

``fused_attention_messages`` — with ``a = Ws h_src + Wr h_rel + b``,
``alpha = sigmoid(v . relu(a))``, ``m = (W (h_src + h_rel)) * alpha``
and ``out = segsum(m, dst)``:

* ``dm = g[dst]`` (segment-sum backward is a gather);
* ``d(W s) = dm * alpha``; ``d alpha = sum_d dm * (W s)``;
* ``ds = d(W s) @ W``; ``dW = s^T d(W s)`` (transposed);
* ``dz = d alpha * alpha * (1 - alpha)``; ``d relu(a) = outer(dz, v)``;
  ``dv = relu(a)^T dz``; ``da = d relu(a) * [a > 0]``;
  ``db = sum_E da``; ``dWs = h_src^T da``; ``dWr = h_rel^T da``;
* ``dh_src = da @ Ws + ds`` and ``dh_rel = da @ Wr + ds``, scattered
  back into ``hidden_prev`` / the relation table (``scatter_add_rows``).

Every numpy expression replicates the exact operation order of the
op-by-op composition, so the fused KUCNet layer is **bitwise identical**
to it in both forward and backward; ``tests/reference_ops.py`` keeps
that composition as the test oracle.

``fused_segment_softmax`` — ``out = exp(x - max_seg) / denom[seg]``:
``d exp = g / denom[seg] + scatter(-g * exp / denom[seg]^2)[seg]``,
``dx = d exp * exp`` (the per-segment max is a constant, as in the
reference composition).

``fused_gather_mul_segment_sum`` — ``out = segsum(x[ix] * y[iy], seg)``:
``dm = g[seg]``; ``dx[ix] += dm * y[iy]``; ``dy[iy] += dm * x[ix]``.

Each fused forward bumps ``autodiff.fused_calls`` and adds the byte
size of the intermediate tape nodes it eliminated to
``autodiff.fused_saved_bytes``.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import tracer as _tracer
from .tensor import Tensor, _unbroadcast, scatter_add_rows, stable_sigmoid

__all__ = ["fused_attention_messages", "fused_segment_softmax",
           "fused_gather_mul_segment_sum", "fused_rgcn_messages"]


def _needs(tensor: Tensor) -> bool:
    return tensor.requires_grad or bool(tensor._parents)


def _record_fusion(saved_bytes: int) -> None:
    if _tracer.STATE.enabled:
        _tracer.counter("autodiff.fused_calls")
        _tracer.counter("autodiff.fused_saved_bytes", float(saved_bytes))


class _Scratch(threading.local):
    """The calling thread's reusable buffers for ``(E, d)`` temporaries.

    ``fused_attention_messages`` needs at most six such arrays at once
    (its backward); each slot is a flat float64 buffer grown to the
    largest call, so a training run stops allocating, and page-faulting,
    an edge-sized array per temporary once its largest layer has run.
    Nothing a kernel returns or stores is a view of one.
    """

    SLOTS = 6

    def __init__(self) -> None:
        self.buffers = [np.empty(0) for _ in range(self.SLOTS)]

    def array(self, slot: int, shape: Tuple[int, int]) -> np.ndarray:
        size = shape[0] * shape[1]
        if self.buffers[slot].size < size:
            self.buffers[slot] = np.empty(size)
        return self.buffers[slot][:size].reshape(shape)


_SCRATCH = _Scratch()


def _gather(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table[index]`` written into ``out``.

    A raise-mode ``np.take`` with ``out`` gathers into a temporary and
    copies it over, so the index is range-checked here and the take runs
    in clip mode, which then never clips.
    """
    if index.size and (index.min() < 0 or index.max() >= table.shape[0]):
        raise IndexError(
            f"gather index out of range for {table.shape[0]} rows")
    return np.take(table, index, axis=0, out=out, mode="clip")


# ----------------------------------------------------------------------
# Eq. 5-6: the full KUCNet attention message-passing pattern
# ----------------------------------------------------------------------

def fused_attention_messages(
    hidden_prev: Tensor,
    src_pos: np.ndarray,
    relations: np.ndarray,
    dst_pos: np.ndarray,
    num_dst: int,
    *,
    relation_weight: Tensor,
    message_weight: Tensor,
    attn_source_weight: Optional[Tensor] = None,
    attn_relation_weight: Optional[Tensor] = None,
    attn_bias: Optional[Tensor] = None,
    attn_vector: Optional[Tensor] = None,
    use_attention: bool = True,
    collect_attention: bool = False,
) -> Tuple[Tensor, Optional[np.ndarray]]:
    """Gather → attention score → sigmoid → transform → segment-sum.

    One tape node computing Eq. 5-6 for a layer's edge list:

    * ``hidden_prev`` — ``(num_prev, d)`` source-table states;
    * ``src_pos`` / ``relations`` / ``dst_pos`` — per-edge indices;
      any out of range raises ``IndexError``;
    * ``relation_weight`` — ``(R, d)`` relation-embedding table;
    * ``message_weight`` — ``(d, d)`` message transform ``W``;
    * attention parameters (required when ``use_attention``):
      ``attn_source_weight`` / ``attn_relation_weight`` ``(d_a, d)``,
      ``attn_bias`` ``(d_a,)``, ``attn_vector`` ``(d_a,)``.

    Returns ``(aggregated, attention)`` where ``aggregated`` is the
    ``(num_dst, d)`` pre-activation node sum and ``attention`` the
    per-edge weights as a numpy copy — only when ``collect_attention``
    (``None`` otherwise, sparing the ``(E,)`` copy on the hot loop).

    The ``(E, d)`` temporaries of the forward and backward live in the
    calling thread's scratch buffers, written with ``out=`` by the same
    operations in the same order as the reference composition.
    """
    src_pos = np.asarray(src_pos, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    dst_pos = np.asarray(dst_pos, dtype=np.int64)
    if use_attention and None in (attn_source_weight, attn_relation_weight,
                                  attn_bias, attn_vector):
        raise ValueError("use_attention=True requires all attention parameters")

    num_edges = src_pos.shape[0]
    dim = hidden_prev.data.shape[1]
    itemsize = hidden_prev.data.dtype.itemsize
    edge_shape = (num_edges, dim)
    message_shape = (num_edges, message_weight.data.shape[0])

    with _tracer.span("autodiff.fused"):
        hp = hidden_prev.data
        rw = relation_weight.data
        w_msg = message_weight.data
        h_src = _gather(hp, src_pos, _SCRATCH.array(0, edge_shape))
        h_rel = _gather(rw, relations, _SCRATCH.array(1, edge_shape))
        s = np.add(h_src, h_rel, out=_SCRATCH.array(2, edge_shape))
        m0 = np.matmul(s, w_msg.swapaxes(-1, -2),
                       out=_SCRATCH.array(3, message_shape))
        alpha: Optional[np.ndarray] = None
        if use_attention:
            w_src = attn_source_weight.data
            w_rel = attn_relation_weight.data
            pre = ((h_src @ w_src.swapaxes(-1, -2))
                   + (h_rel @ w_rel.swapaxes(-1, -2))) + attn_bias.data
            z = (pre * (pre > 0)) @ attn_vector.data
            alpha = stable_sigmoid(z)
            m0 *= alpha.reshape(-1, 1)
        out_data = scatter_add_rows(dst_pos, m0, num_dst)

    # Bytes of the reference composition's intermediate tape nodes this
    # single node replaces: h_src/h_rel/s/m0 (and the msg product under
    # attention) at (E, d), the five attention stages at (E, d_a), the
    # three (E,)-sized score nodes, plus the per-call transpose views of
    # the weight matrices.
    if use_attention:
        attn_dim = attn_bias.data.shape[0]
        saved = (5 * num_edges * dim + 5 * num_edges * attn_dim
                 + 3 * num_edges + 2 * attn_dim * dim + dim * dim) * itemsize
    else:
        saved = (4 * num_edges * dim + dim * dim) * itemsize
    _record_fusion(saved)

    parents: List[Tensor] = [hidden_prev, relation_weight, message_weight]
    if use_attention:
        parents += [attn_source_weight, attn_relation_weight,
                    attn_bias, attn_vector]
    out = Tensor(out_data)

    def _backward():
        grad_out = out.grad
        hp = hidden_prev.data
        rw = relation_weight.data
        w_msg = message_weight.data
        # Recompute the per-edge intermediates instead of storing them:
        # the inputs are alive as graph parents, so the closure holds
        # nothing beyond the integer index arrays.  A slot is reused
        # once its array is dead: m0's takes grad_s, dm's grad_h_src and
        # grad_m0's grad_h_rel.
        h_src = _gather(hp, src_pos, _SCRATCH.array(0, edge_shape))
        h_rel = _gather(rw, relations, _SCRATCH.array(1, edge_shape))
        s = np.add(h_src, h_rel, out=_SCRATCH.array(2, edge_shape))
        dm = _gather(grad_out, dst_pos, _SCRATCH.array(3, message_shape))
        if use_attention:
            w_src = attn_source_weight.data
            w_rel = attn_relation_weight.data
            pre = ((h_src @ w_src.swapaxes(-1, -2))
                   + (h_rel @ w_rel.swapaxes(-1, -2))) + attn_bias.data
            mask = pre > 0
            hidden_attn = pre * mask
            alpha = stable_sigmoid(hidden_attn @ attn_vector.data)
            m0 = np.matmul(s, w_msg.swapaxes(-1, -2),
                           out=_SCRATCH.array(4, message_shape))
            grad_m0 = np.multiply(dm, alpha.reshape(-1, 1),
                                  out=_SCRATCH.array(5, message_shape))
            grad_alpha = _unbroadcast(np.multiply(dm, m0, out=m0),
                                      (num_edges, 1)).reshape(num_edges)
            grad_z = grad_alpha * alpha * (1.0 - alpha)
            grad_attn = np.outer(grad_z, attn_vector.data) * mask
        else:
            grad_m0 = dm
        grad_s = np.matmul(grad_m0, w_msg, out=_SCRATCH.array(4, edge_shape))
        if _needs(message_weight):
            message_weight._accumulate_grad(
                (s.swapaxes(-1, -2) @ grad_m0).swapaxes(-1, -2))
        if use_attention:
            grad_h_src = np.matmul(grad_attn, w_src,
                                   out=_SCRATCH.array(3, edge_shape))
            grad_h_src += grad_s
            grad_h_rel = np.matmul(grad_attn, w_rel,
                                   out=_SCRATCH.array(5, edge_shape))
            grad_h_rel += grad_s
            if _needs(attn_source_weight):
                attn_source_weight._accumulate_grad(
                    (h_src.swapaxes(-1, -2) @ grad_attn).swapaxes(-1, -2))
            if _needs(attn_relation_weight):
                attn_relation_weight._accumulate_grad(
                    (h_rel.swapaxes(-1, -2) @ grad_attn).swapaxes(-1, -2))
            if _needs(attn_bias):
                attn_bias._accumulate_grad(grad_attn.sum(axis=0))
            if _needs(attn_vector):
                attn_vector._accumulate_grad(hidden_attn.T @ grad_z)
        else:
            grad_h_src = grad_s
            grad_h_rel = grad_s
        # The reference gathers always scatter (their backward has no
        # requires-grad guard); mirror that so gradient side effects on
        # non-parameter tensors stay identical.
        hidden_prev._accumulate_grad(
            scatter_add_rows(src_pos, grad_h_src, hp.shape[0]))
        relation_weight._accumulate_grad(
            scatter_add_rows(relations, grad_h_rel, rw.shape[0]))

    attention_values: Optional[np.ndarray] = None
    if collect_attention:
        attention_values = (alpha.copy() if use_attention
                            else np.ones(num_edges))
    return out._record(tuple(parents), _backward), attention_values


# ----------------------------------------------------------------------
# Per-destination softmax (KGNN-LS / RippleNet / CKAN normalization)
# ----------------------------------------------------------------------

def fused_segment_softmax(x: Tensor, segment_ids: np.ndarray,
                          num_segments: int) -> Tensor:
    """Numerically-stable per-segment softmax as a single tape node.

    Matches the reference composition (``segment_max`` shift → ``exp``
    → ``segment_sum`` → gather-divide) bit for bit while replacing its
    six intermediate tape nodes with one; the shifted/exp arrays are
    recomputed in the backward pass.  Empty segments produce no output
    rows and receive no gradient, exactly as in the composition.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    tail_shape = x.data.shape[1:]
    segment_nbytes = (num_segments
                      * int(np.prod(tail_shape, dtype=np.int64))
                      * x.data.dtype.itemsize)

    def _forward_arrays():
        seg_max = np.full((num_segments,) + tail_shape, -np.inf,
                          dtype=x.data.dtype)
        np.maximum.at(seg_max, segment_ids, x.data)
        exp = np.exp(x.data + (-seg_max[segment_ids]))
        denom = scatter_add_rows(segment_ids, exp, num_segments)
        return exp, denom[segment_ids]

    with _tracer.span("autodiff.fused"):
        exp, denom_edges = _forward_arrays()
        out_data = exp / denom_edges

    # Reference composition tape: the gathered-max constant, its
    # negation, the shifted node, exp, the (S,·) denominator, and its
    # per-edge gather — all eliminated.
    _record_fusion(5 * exp.nbytes + segment_nbytes)

    out = Tensor(out_data)

    def _backward():
        grad_out = out.grad
        exp, denom_edges = _forward_arrays()
        grad_exp = grad_out / denom_edges
        grad_denom = scatter_add_rows(
            segment_ids, (-grad_out) * exp / (denom_edges ** 2), num_segments)
        grad_exp = grad_exp + grad_denom[segment_ids]
        if _needs(x):
            x._accumulate_grad(grad_exp * exp)

    return out._record((x,), _backward)


# ----------------------------------------------------------------------
# Gather-multiply-aggregate (KGAT / KGIN / CompGCN / NBFNet pattern)
# ----------------------------------------------------------------------

def fused_gather_mul_segment_sum(
    x: Tensor,
    x_indices: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    y: Optional[Tensor] = None,
    y_indices: Optional[np.ndarray] = None,
) -> Tensor:
    """``segment_sum(x[x_indices] * y[y_indices], segment_ids)`` fused.

    The shared shape of every segment-sum baseline's propagation step:

    * ``y=None`` — plain gather + aggregate (KGIN's user aggregation);
    * ``y`` with ``y_indices`` — a second gathered table, multiplied
      edge-wise (KGIN/CompGCN/NBFNet relation gating);
    * ``y`` without ``y_indices`` — a per-edge operand used as-is, e.g.
      KGAT's non-differentiated ``(E, 1)`` attention column.

    Bitwise-equal to the unfused gather/multiply/segment-sum chain.
    """
    x_indices = np.asarray(x_indices, dtype=np.int64)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if y_indices is not None:
        if y is None:
            raise ValueError("y_indices given without y")
        y_indices = np.asarray(y_indices, dtype=np.int64)

    with _tracer.span("autodiff.fused"):
        rows = x.data[x_indices]
        if y is not None:
            y_rows = y.data[y_indices] if y_indices is not None else y.data
            messages = rows * y_rows
        else:
            messages = rows
        out_data = scatter_add_rows(segment_ids, messages, num_segments)

    saved = rows.nbytes
    if y is not None:
        saved += messages.nbytes
        if y_indices is not None:
            saved += rows.nbytes  # the gathered (E, ·) relation rows
        else:
            saved += y.data.nbytes  # the per-edge operand node itself
    _record_fusion(saved)

    parents = (x,) if y is None else (x, y)
    out = Tensor(out_data)

    def _backward():
        dm = out.grad[segment_ids]
        if y is not None:
            y_rows = y.data[y_indices] if y_indices is not None else y.data
            grad_rows = dm * y_rows
        else:
            grad_rows = dm
        x._accumulate_grad(
            scatter_add_rows(x_indices, grad_rows, x.data.shape[0]))
        if y is not None and _needs(y):
            grad_y_rows = dm * x.data[x_indices]
            if y_indices is not None:
                y._accumulate_grad(
                    scatter_add_rows(y_indices, grad_y_rows, y.data.shape[0]))
            else:
                y._accumulate_grad(_unbroadcast(grad_y_rows, y.data.shape))

    return out._record(parents, _backward)


# ----------------------------------------------------------------------
# R-GCN basis-decomposed relational messages
# ----------------------------------------------------------------------

def fused_rgcn_messages(
    hidden: Tensor,
    heads: np.ndarray,
    relations: np.ndarray,
    tails: np.ndarray,
    num_nodes: int,
    basis_weights: Sequence[Tensor],
    basis_coeffs: Tensor,
) -> Tensor:
    """R-GCN layer messages ``segsum(Σ_b (x[h] V_b^T) · a[r, b], tails)``.

    Replaces, per basis, a transpose node, an ``(E, d)`` matmul, the
    three-node coefficient-column selection, an ``(E, d)`` product
    and an ``(E, d)`` running-sum node — ``5B + 1`` tape nodes collapse
    into one.  ``basis_weights`` are the ``(d, d)`` basis matrices
    ``V_b``; ``basis_coeffs`` the ``(R, B)`` relation coefficients.
    """
    heads = np.asarray(heads, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    basis_weights = list(basis_weights)
    num_bases = len(basis_weights)
    num_edges = heads.shape[0]
    dim = hidden.data.shape[1]

    with _tracer.span("autodiff.fused"):
        source = hidden.data[heads]
        coeff_rows = basis_coeffs.data[relations]
        messages = None
        for index, basis in enumerate(basis_weights):
            term = ((source @ basis.data.swapaxes(-1, -2))
                    * coeff_rows[:, index:index + 1])
            messages = term if messages is None else messages + term
        out_data = scatter_add_rows(tails, messages, num_nodes)

    itemsize = hidden.data.dtype.itemsize
    # source + coeff gather, then per basis: transpose view, matmul
    # output, the coefficient-column chain (flat, (E*B, 1) view, (E, 1)
    # column), the gated term, and B-1 running-sum nodes.
    saved = (num_edges * dim + num_edges * num_bases
             + num_bases * (dim * dim + num_edges * dim
                            + 2 * num_edges * num_bases + num_edges
                            + num_edges * dim)
             + (num_bases - 1) * num_edges * dim) * itemsize
    _record_fusion(saved)

    parents = (hidden, basis_coeffs) + tuple(basis_weights)
    out = Tensor(out_data)

    def _backward():
        dm = out.grad[tails]
        source = hidden.data[heads]
        coeff_rows = basis_coeffs.data[relations]
        grad_source = None
        grad_coeff_rows = np.zeros_like(coeff_rows)
        for index, basis in enumerate(basis_weights):
            term_pre = source @ basis.data.swapaxes(-1, -2)
            grad_term_pre = dm * coeff_rows[:, index:index + 1]
            grad_coeff_rows[:, index:index + 1] = _unbroadcast(
                dm * term_pre, (num_edges, 1))
            if _needs(basis):
                basis._accumulate_grad(
                    (source.swapaxes(-1, -2) @ grad_term_pre).swapaxes(-1, -2))
            contribution = grad_term_pre @ basis.data
            grad_source = (contribution if grad_source is None
                           else grad_source + contribution)
        if _needs(basis_coeffs):
            basis_coeffs._accumulate_grad(scatter_add_rows(
                relations, grad_coeff_rows, basis_coeffs.data.shape[0]))
        hidden._accumulate_grad(
            scatter_add_rows(heads, grad_source, hidden.data.shape[0]))

    return out._record(parents, _backward)

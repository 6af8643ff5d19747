"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class, a thin wrapper around a
``numpy.ndarray`` that records the operations applied to it and can
backpropagate gradients through them.  It is the execution substrate that
replaces PyTorch in this reproduction: the KUCNet model and every learned
baseline are expressed in terms of these tensors, so the forward math is
identical to the paper's equations and the gradients are exact (verified
by finite-difference tests).

Design notes
------------
* Data is stored as ``float64`` by default.  At the scale of this
  reproduction the extra precision is cheap and makes gradient checking
  tight.
* Each differentiable operation creates a new :class:`Tensor` and
  records it (:meth:`Tensor._record`) with its parents and a
  ``_backward`` closure that accumulates gradients into them.
  :meth:`Tensor.backward` runs a topological sort, calls the closures
  in reverse order and frees each non-leaf node as soon as its closure
  has run, so a step's tape is released when ``backward`` returns.
* Inside :func:`no_tape` the calling thread records nothing: ops return
  constants.  Scoring, evaluation and serving run there.
* Broadcasting is supported for elementwise binary ops; gradients are
  un-broadcast (summed over expanded axes) before accumulation.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..telemetry import tracer as _tracer

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    """Coerce ``value`` to a numpy array of the engine's dtype."""
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


class _TapeState(threading.local):
    #: False on a thread inside :func:`no_tape`
    recording = True


_TAPE = _TapeState()


@contextlib.contextmanager
def no_tape() -> Iterator[None]:
    """Record no graph on the calling thread inside the block.

    Ops compute the same values, but their outputs get no parents, no
    backward closure and ``requires_grad=False``: a forward pass nobody
    differentiates allocates no tape.  Nests; other threads keep
    recording.
    """
    previous = _TAPE.recording
    _TAPE.recording = False
    try:
        yield
    finally:
        _TAPE.recording = previous


def _freed_backward() -> None:
    raise RuntimeError(
        "backward() reached a node whose graph an earlier backward() "
        "freed; run the forward pass again to differentiate it again")


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` that never exponentiates a large positive number.

    :meth:`Tensor.sigmoid`, the backward of :meth:`Tensor.softplus` and
    the fused attention kernel share it, so they agree bit for bit.
    """
    decay = np.exp(-np.abs(x))
    denom = 1.0 + decay
    return np.where(x >= 0, 1.0 / denom, decay / denom)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to reverse numpy broadcasting.

    When a forward op broadcasts an operand from ``shape`` up to the
    output shape, the operand's gradient is the output gradient summed
    over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


#: Scatters of at least this many elements go through the sparse
#: product; below it scipy's fixed per-call set-up (tens of µs) costs
#: more than the whole bincount.
SPARSE_SCATTER_MIN_ELEMENTS = 16384


def scatter_add_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum ``values`` into rows ``index`` of a fresh zero array.

    Bit for bit what ``np.add.at`` leaves in ``np.zeros((num_rows,) +
    values.shape[index.ndim:])``, without its ufunc dispatch per element:
    both paths start every sum at +0.0 and add the edges in edge order
    (a COO product loops over its stored entries in order).  Only which
    NaN survives when two NaNs meet may differ.  Indices outside
    ``[0, num_rows)`` raise ``IndexError``; a negative one would alias.
    """
    index = np.asarray(index, dtype=np.int64)
    tail = values.shape[index.ndim:]
    width = math.prod(tail)
    index = index.reshape(-1)
    if index.size and (index.min() < 0 or index.max() >= num_rows):
        raise IndexError(f"scatter index out of range for {num_rows} rows")
    flat = values.reshape(index.size, width)
    if flat.size >= SPARSE_SCATTER_MIN_ELEMENTS:
        incidence = sp.coo_array(
            (np.ones(index.size), (index, np.arange(index.size))),
            shape=(num_rows, index.size))
        sums = incidence @ flat
    else:
        keys = (index[:, None] * width + np.arange(width)).reshape(-1)
        sums = np.bincount(keys, weights=flat.reshape(-1),
                           minlength=num_rows * width)
    # astype: bincount returns int64 zeros when there are no weights.
    return sums.astype(values.dtype, copy=False).reshape((num_rows,) + tail)


class Tensor:
    """A numpy-backed tensor that supports reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "name", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: str = ""):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple["Tensor", ...] = ()
        self._backward_fn: Optional[Callable[[], None]] = None
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a 0-d or 1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Autodiff plumbing
    # ------------------------------------------------------------------
    def _accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``, allocating on first use."""
        if self.grad is None:
            # One pass with the bits of a zero-fill plus add: ``grad +
            # 0.0`` broadcasts the same way and turns -0.0 into +0.0.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _record(self, parents: Tuple["Tensor", ...],
                backward_fn: Callable[[], None]) -> "Tensor":
        """Tape ``self`` as computed from ``parents``; returns ``self``.

        ``backward_fn`` accumulates ``self.grad`` into the parents.  Under
        :func:`no_tape` nothing is kept and ``self`` stays a constant.
        """
        if _TAPE.recording:
            self._parents = parents
            self.requires_grad = any(t.requires_grad or t._parents
                                     for t in parents)
            self._backward_fn = backward_fn
        return self

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The graph is consumed: each non-leaf node drops its parents,
        closure and gradient once its closure has run, so only leaves
        (parameters, inputs) keep gradients.  A later backward that
        reaches a freed node raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        self._accumulate_grad(_as_array(grad))

        # Topological order via iterative DFS (graphs here can be deep).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        if _tracer.STATE.enabled:
            # Tape shape metrics: length of the recorded graph and the
            # ndarray bytes it holds (histogram max = peak per backward).
            _tracer.counter("autodiff.backward_calls")
            _tracer.histogram("autodiff.tape_nodes", len(order))
            _tracer.histogram("autodiff.tape_bytes",
                              sum(node.data.nbytes for node in order))

        with _tracer.span("autodiff.backward"):
            # Every consumer of a node sits after it in ``order`` and has
            # run by the time the node is popped, so the node's gradient,
            # closure and parents are dead once its own closure returns.
            while order:
                node = order.pop()
                if node._backward_fn is None:
                    continue
                if node.grad is not None:
                    node._backward_fn()
                node._parents = ()
                node._backward_fn = _freed_backward
                node.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data + other.data)

        def _backward():
            if self.requires_grad or self._parents:
                self._accumulate_grad(_unbroadcast(out.grad, self.shape))
            if other.requires_grad or other._parents:
                other._accumulate_grad(_unbroadcast(out.grad, other.shape))

        return out._record((self, other), _backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data)

        def _backward():
            self._accumulate_grad(-out.grad)

        return out._record((self,), _backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data * other.data)

        def _backward():
            if self.requires_grad or self._parents:
                self._accumulate_grad(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad or other._parents:
                other._accumulate_grad(_unbroadcast(out.grad * self.data, other.shape))

        return out._record((self, other), _backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data / other.data)

        def _backward():
            if self.requires_grad or self._parents:
                self._accumulate_grad(_unbroadcast(out.grad / other.data, self.shape))
            if other.requires_grad or other._parents:
                grad_other = -out.grad * self.data / (other.data**2)
                other._accumulate_grad(_unbroadcast(grad_other, other.shape))

        return out._record((self, other), _backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(self.data**exponent)

        def _backward():
            self._accumulate_grad(out.grad * exponent * self.data ** (exponent - 1))

        return out._record((self,), _backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product ``self @ other`` for 1-D/2-D operands."""
        other = self._coerce(other)
        out = Tensor(self.data @ other.data)

        def _backward():
            grad = out.grad
            a, b = self.data, other.data
            if self.requires_grad or self._parents:
                if b.ndim == 1 and a.ndim >= 2:
                    self._accumulate_grad(np.outer(grad, b) if grad.ndim == 1 else grad[..., None] * b)
                elif a.ndim == 1:
                    self._accumulate_grad(grad @ b.T if b.ndim == 2 else grad * b)
                else:
                    self._accumulate_grad(grad @ b.swapaxes(-1, -2))
            if other.requires_grad or other._parents:
                if a.ndim == 1 and b.ndim == 2:
                    other._accumulate_grad(np.outer(a, grad))
                elif b.ndim == 1:
                    other._accumulate_grad(a.T @ grad if a.ndim == 2 else a * grad)
                else:
                    other._accumulate_grad(a.swapaxes(-1, -2) @ grad)

        return out._record((self, other), _backward)

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        """Transpose the last two axes."""
        out = Tensor(self.data.swapaxes(-1, -2))

        def _backward():
            self._accumulate_grad(out.grad.swapaxes(-1, -2))

        return out._record((self,), _backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape))

        def _backward():
            self._accumulate_grad(out.grad.reshape(self.shape))

        return out._record((self,), _backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims))

        def _backward():
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate_grad(np.broadcast_to(grad, self.shape).copy())

        return out._record((self,), _backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; gradient flows to the (first) argmax entries."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(out_data)

        def _backward():
            grad = out.grad
            expanded = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient between ties so the total is conserved.
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate_grad(mask * grad)

        return out._record((self,), _backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = Tensor(out_data)

        def _backward():
            self._accumulate_grad(out.grad * out_data)

        return out._record((self,), _backward)

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data))

        def _backward():
            self._accumulate_grad(out.grad / self.data)

        return out._record((self,), _backward)

    def sigmoid(self) -> "Tensor":
        out_data = stable_sigmoid(self.data)
        out = Tensor(out_data)

        def _backward():
            self._accumulate_grad(out.grad * out_data * (1.0 - out_data))

        return out._record((self,), _backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        out = Tensor(out_data)

        def _backward():
            self._accumulate_grad(out.grad * (1.0 - out_data**2))

        return out._record((self,), _backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = Tensor(self.data * mask)

        def _backward():
            self._accumulate_grad(out.grad * mask)

        return out._record((self,), _backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value; subgradient sign(x) at 0 is 0."""
        sign = np.sign(self.data)
        out = Tensor(np.abs(self.data))

        def _backward():
            self._accumulate_grad(out.grad * sign)

        return out._record((self,), _backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values into ``[low, high]``; gradient is 1 inside."""
        if low > high:
            raise ValueError(f"clip bounds reversed: {low} > {high}")
        inside = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
        out = Tensor(np.clip(self.data, low, high))

        def _backward():
            self._accumulate_grad(out.grad * inside)

        return out._record((self,), _backward)

    def minimum(self, other: "Tensor") -> "Tensor":
        """Elementwise minimum; ties route gradient to ``self``."""
        other = self._coerce(other)
        take_self = self.data <= other.data
        out = Tensor(np.where(take_self, self.data, other.data))

        def _backward():
            mask = take_self.astype(self.data.dtype)
            if self.requires_grad or self._parents:
                self._accumulate_grad(_unbroadcast(out.grad * mask, self.shape))
            if other.requires_grad or other._parents:
                other._accumulate_grad(
                    _unbroadcast(out.grad * (1.0 - mask), other.shape))

        return out._record((self, other), _backward)

    def softplus(self) -> "Tensor":
        """log(1 + exp(x)), computed stably."""
        x = self.data
        out_data = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
        out = Tensor(out_data)

        def _backward():
            self._accumulate_grad(out.grad * stable_sigmoid(x))

        return out._record((self,), _backward)

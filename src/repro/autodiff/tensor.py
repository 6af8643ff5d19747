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
* Each differentiable operation creates a new :class:`Tensor` whose
  ``_backward`` closure accumulates gradients into its parents.
  :meth:`Tensor.backward` runs a topological sort and calls the closures
  in reverse order.
* Broadcasting is supported for elementwise binary ops; gradients are
  un-broadcast (summed over expanded axes) before accumulation.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence, Union

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
    parents:
        Tensors this one was computed from (internal).
    backward_fn:
        Closure that propagates ``self.grad`` into the parents (internal).
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Iterable["Tensor"] = (),
        backward_fn: Optional[Callable[[], None]] = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
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
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

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
            for node in reversed(order):
                if node._backward_fn is not None and node.grad is not None:
                    node._backward_fn()

    @staticmethod
    def _needs_graph(*tensors: "Tensor") -> bool:
        return any(t.requires_grad or t._parents for t in tensors)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data + other.data, parents=(self, other))
        out.requires_grad = Tensor._needs_graph(self, other)

        def _backward():
            if self.requires_grad or self._parents:
                self._accumulate_grad(_unbroadcast(out.grad, self.shape))
            if other.requires_grad or other._parents:
                other._accumulate_grad(_unbroadcast(out.grad, other.shape))

        out._backward_fn = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(-out.grad)

        out._backward_fn = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data * other.data, parents=(self, other))
        out.requires_grad = Tensor._needs_graph(self, other)

        def _backward():
            if self.requires_grad or self._parents:
                self._accumulate_grad(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad or other._parents:
                other._accumulate_grad(_unbroadcast(out.grad * self.data, other.shape))

        out._backward_fn = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = Tensor(self.data / other.data, parents=(self, other))
        out.requires_grad = Tensor._needs_graph(self, other)

        def _backward():
            if self.requires_grad or self._parents:
                self._accumulate_grad(_unbroadcast(out.grad / other.data, self.shape))
            if other.requires_grad or other._parents:
                grad_other = -out.grad * self.data / (other.data**2)
                other._accumulate_grad(_unbroadcast(grad_other, other.shape))

        out._backward_fn = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(self.data**exponent, parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad * exponent * self.data ** (exponent - 1))

        out._backward_fn = _backward
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product ``self @ other`` for 1-D/2-D operands."""
        other = self._coerce(other)
        out = Tensor(self.data @ other.data, parents=(self, other))
        out.requires_grad = Tensor._needs_graph(self, other)

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

        out._backward_fn = _backward
        return out

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        """Transpose the last two axes."""
        out = Tensor(self.data.swapaxes(-1, -2), parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad.swapaxes(-1, -2))

        out._backward_fn = _backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad.reshape(self.shape))

        out._backward_fn = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate_grad(np.broadcast_to(grad, self.shape).copy())

        out._backward_fn = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; gradient flows to the (first) argmax entries."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

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

        out._backward_fn = _backward
        return out

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = Tensor(out_data, parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad * out_data)

        out._backward_fn = _backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad / self.data)

        out._backward_fn = _backward
        return out

    def sigmoid(self) -> "Tensor":
        # Numerically stable: never exponentiates a large positive number.
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        out = Tensor(out_data, parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad * out_data * (1.0 - out_data))

        out._backward_fn = _backward
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        out = Tensor(out_data, parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad * (1.0 - out_data**2))

        out._backward_fn = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = Tensor(self.data * mask, parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad * mask)

        out._backward_fn = _backward
        return out

    def abs(self) -> "Tensor":
        """Elementwise absolute value; subgradient sign(x) at 0 is 0."""
        sign = np.sign(self.data)
        out = Tensor(np.abs(self.data), parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad * sign)

        out._backward_fn = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values into ``[low, high]``; gradient is 1 inside."""
        if low > high:
            raise ValueError(f"clip bounds reversed: {low} > {high}")
        inside = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
        out = Tensor(np.clip(self.data, low, high), parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            self._accumulate_grad(out.grad * inside)

        out._backward_fn = _backward
        return out

    def minimum(self, other: "Tensor") -> "Tensor":
        """Elementwise minimum; ties route gradient to ``self``."""
        other = self._coerce(other)
        take_self = self.data <= other.data
        out = Tensor(np.where(take_self, self.data, other.data),
                     parents=(self, other))
        out.requires_grad = Tensor._needs_graph(self, other)

        def _backward():
            mask = take_self.astype(self.data.dtype)
            if self.requires_grad or self._parents:
                self._accumulate_grad(_unbroadcast(out.grad * mask, self.shape))
            if other.requires_grad or other._parents:
                other._accumulate_grad(
                    _unbroadcast(out.grad * (1.0 - mask), other.shape))

        out._backward_fn = _backward
        return out

    def softplus(self) -> "Tensor":
        """log(1 + exp(x)), computed stably."""
        x = self.data
        out_data = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
        out = Tensor(out_data, parents=(self,))
        out.requires_grad = Tensor._needs_graph(self)

        def _backward():
            sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
            self._accumulate_grad(out.grad * sig)

        out._backward_fn = _backward
        return out

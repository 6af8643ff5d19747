"""Numpy-based reverse-mode autodiff engine (PyTorch substitute).

Public surface:

* :class:`Tensor` — autodiff array; :func:`no_tape` — record nothing
  on this thread (forward passes nobody differentiates).
* :mod:`ops` — functional graph/NN primitives (``gather_rows``,
  ``segment_sum``, ``softmax``, ``bpr_loss``, ...).
* :class:`Module` / :class:`Parameter` / layers — model building blocks.
* :class:`SGD` / :class:`Adam` — optimizers.
* :func:`check_gradients` — finite-difference verification.
"""

from .fused import (fused_attention_messages, fused_gather_mul_segment_sum,
                    fused_rgcn_messages, fused_segment_softmax)
from .gradcheck import check_gradients, check_gradients_match, numeric_gradient
from .module import (Dropout, Embedding, Linear, Module, Parameter, ReLU,
                     Sequential, Tanh)
from .ops import (binary_cross_entropy_with_logits, bpr_loss, concat, dropout,
                  gather_rows, l2_penalty, log_sigmoid, mse_loss, segment_max,
                  segment_softmax, segment_sum, softmax, stack, where)
from .optim import SGD, Adam, Optimizer
from .tensor import Tensor, no_tape

__all__ = [
    "Tensor", "no_tape", "Module", "Parameter", "Linear", "Embedding",
    "Dropout", "Sequential", "ReLU", "Tanh",
    "SGD", "Adam", "Optimizer",
    "gather_rows", "segment_sum", "segment_max", "segment_softmax",
    "concat", "stack", "softmax", "dropout", "log_sigmoid", "bpr_loss",
    "l2_penalty", "mse_loss", "binary_cross_entropy_with_logits", "where",
    "fused_attention_messages", "fused_segment_softmax",
    "fused_gather_mul_segment_sum", "fused_rgcn_messages",
    "check_gradients", "check_gradients_match", "numeric_gradient",
]

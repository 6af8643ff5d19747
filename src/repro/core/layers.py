"""KUCNet's attention-based message-passing layer (Eq. 5-6 of the paper).

One layer ``l`` owns:

* per-layer relation embeddings ``h_r^l`` (a lookup table over the CKG's
  relation ids, reverse twins included);
* the message transform ``W^l``;
* the attention parameters ``w_α^l``, ``W_αs^l``, ``W_αr^l``, ``b_α``.

The forward pass computes, for every edge ``(n_s, r, n_o)`` of the layer,

    α = sigmoid(w_α^T ReLU(W_αs h_src + W_αr h_r + b_α))        (attention)
    m = α · W^l (h_src + h_r)                                    (message)

and aggregates messages into destination nodes with a segment sum,
followed by the activation ``δ`` (Eq. 5).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autodiff import (Dropout, Embedding, Linear, Module, Parameter,
                        Tensor, fused_attention_messages)
from ..autodiff import init as ad_init
from ..sampling import LayerEdges

ACTIVATIONS = ("identity", "relu", "tanh")


class AttentionMessagePassing(Module):
    """One KUCNet propagation layer (Eq. 5-6).

    Parameters
    ----------
    dim:
        Hidden dimension ``d``.
    attn_dim:
        Attention hidden dimension ``d_α`` (paper tunes in {3, 5}).
    num_relations:
        Total relation count of the CKG (reverse twins included).
    activation:
        ``δ`` in Eq. (5): ``identity``, ``relu``, or ``tanh``.
    use_attention:
        ``False`` fixes ``α = 1`` — the ``KUCNet-w.o.-Attn`` ablation of
        Table IX.
    dropout:
        Dropout rate applied to aggregated node states.
    """

    def __init__(self, dim: int, attn_dim: int, num_relations: int,
                 activation: str = "relu", use_attention: bool = True,
                 dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.activation = activation
        self.use_attention = use_attention

        self.relation_embedding = Embedding(num_relations, dim, rng=rng)
        self.message_transform = Linear(dim, dim, bias=False, rng=rng)
        self.attn_source = Linear(dim, attn_dim, bias=False, rng=rng)
        self.attn_relation = Linear(dim, attn_dim, bias=False, rng=rng)
        self.attn_bias = Parameter(np.zeros(attn_dim), name="attn_bias")
        self.attn_vector = Parameter(
            ad_init.xavier_uniform((attn_dim,), rng=rng), name="attn_vector")
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, hidden_prev: Tensor, edges: LayerEdges,
                num_dst: int,
                collect_attention: bool = False) -> Tuple[Tensor, Optional[np.ndarray]]:
        """Propagate one layer.

        Parameters
        ----------
        hidden_prev:
            ``(num_prev_nodes, dim)`` states of the previous layer's table.
        edges:
            This layer's edge list (positions into the node tables).
        num_dst:
            Row count of this layer's node table.
        collect_attention:
            Return the per-edge attention weights as a numpy copy for
            the interpretability path (§V-F).  Off by default — the
            training hot loop never consumes them, so it skips the
            ``(E,)`` copy.

        Returns
        -------
        ``(hidden, attention)`` where ``hidden`` is ``(num_dst, dim)``
        and ``attention`` the per-edge weights, or ``None`` unless
        ``collect_attention``.

        A layer without edges runs the same kernel, which returns zeros
        and, under a tape, records a node whose backward gives every
        parameter a +0.0 gradient, as the whole graph's zero terms
        would; the dropout draws its mask over all ``num_dst`` rows
        either way.
        """
        aggregated, attention_values = fused_attention_messages(
            hidden_prev, edges.src_pos, edges.relations, edges.dst_pos,
            num_dst,
            relation_weight=self.relation_embedding.weight,
            message_weight=self.message_transform.weight,
            attn_source_weight=self.attn_source.weight,
            attn_relation_weight=self.attn_relation.weight,
            attn_bias=self.attn_bias,
            attn_vector=self.attn_vector,
            use_attention=self.use_attention,
            collect_attention=collect_attention)
        activated = self._activate(aggregated)
        return self.dropout(activated), attention_values

    def _activate(self, x: Tensor) -> Tensor:
        if self.activation == "relu":
            return x.relu()
        if self.activation == "tanh":
            return x.tanh()
        return x

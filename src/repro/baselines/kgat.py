"""KGAT (Wang et al., KDD 2019) — the KGAT row of Tables III-V.

Knowledge Graph Attention Network over the collaborative KG:

* every CKG node has a base embedding, trained jointly with a
  TransR-style KG-plausibility loss (as in the original's alternating
  scheme, the attention coefficients are computed from the *current*
  embedding values and not differentiated through);
* each layer aggregates neighbors weighted by the attention
  ``π(h, r, t) = (e_t + e_r) · tanh(e_h + e_r)`` softmax-normalized over
  each destination's incoming edges, with a bi-interaction aggregator
  ``LeakyReLU(W1 (e_h + e_N)) + LeakyReLU(W2 (e_h ⊙ e_N))``;
* the final representation concatenates all layer outputs, scored by dot
  product.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import (Embedding, Linear, Tensor, concat,
                        fused_gather_mul_segment_sum, gather_rows,
                        log_sigmoid)
from ..data import Split
from .base import BaselineConfig, BPRModelRecommender


class KGAT(BPRModelRecommender):
    """KGAT with non-differentiated attention (alternating-style training).

    Parameters
    ----------
    num_layers:
        Propagation depth (final representation concatenates layers).
    kg_weight:
        Weight of the TransR-style triplet loss on CKG edges.
    """

    name = "KGAT"

    def __init__(self, config: Optional[BaselineConfig] = None,
                 num_layers: int = 2, kg_weight: float = 0.3,
                 kg_batch: int = 128):
        super().__init__(config)
        self.num_layers = num_layers
        self.kg_weight = kg_weight
        self.kg_batch = kg_batch

    # ------------------------------------------------------------------
    def build(self, split: Split) -> None:
        self.ckg = split.dataset.build_ckg(split.train)
        dim = self.config.dim
        self.node_embedding = Embedding(self.ckg.num_nodes, dim, rng=self.rng)
        self.relation_embedding = Embedding(self.ckg.num_relations, dim, rng=self.rng)
        self.w_sum = [Linear(dim, dim, bias=False, rng=self.rng)
                      for _ in range(self.num_layers)]
        self.w_prod = [Linear(dim, dim, bias=False, rng=self.rng)
                       for _ in range(self.num_layers)]

    def _attention(self) -> np.ndarray:
        """π(h, r, t) softmax-normalized per destination (numpy only)."""
        nodes = self.node_embedding.weight.data
        relations = self.relation_embedding.weight.data
        h = nodes[self.ckg.heads]
        t = nodes[self.ckg.tails]
        r = relations[self.ckg.relations]
        logits = ((t + r) * np.tanh(h + r)).sum(axis=1)
        logits -= logits.max()
        weights = np.exp(logits)
        denom = np.bincount(self.ckg.tails, weights=weights,
                            minlength=self.ckg.num_nodes)
        return weights / np.maximum(denom[self.ckg.tails], 1e-12)

    def _propagate(self) -> Tensor:
        attention = Tensor(self._attention().reshape(-1, 1))
        hidden = self.node_embedding.weight
        outputs: List[Tensor] = [hidden]
        for layer in range(self.num_layers):
            neighborhood = fused_gather_mul_segment_sum(
                hidden, self.ckg.heads, self.ckg.tails,
                self.ckg.num_nodes, y=attention)
            summed = _leaky_relu(self.w_sum[layer](hidden + neighborhood))
            gated = _leaky_relu(self.w_prod[layer](hidden * neighborhood))
            hidden = summed + gated
            outputs.append(hidden)
        return concat(outputs, axis=1)

    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        hidden = self._propagate()
        user_vectors = gather_rows(hidden, users)
        item_vectors = gather_rows(hidden, self.ckg.item_nodes[items])
        return (user_vectors * item_vectors).sum(axis=1)

    def extra_loss(self, users, pos, neg) -> Optional[Tensor]:
        """TransR-flavoured triplet plausibility loss on CKG edges."""
        if self.kg_weight <= 0:
            return None
        sample = self.rng.integers(0, self.ckg.num_edges, size=self.kg_batch)
        heads = self.ckg.heads[sample]
        relations = self.ckg.relations[sample]
        tails = self.ckg.tails[sample]
        corrupted = self.rng.integers(0, self.ckg.num_nodes, size=self.kg_batch)

        h = gather_rows(self.node_embedding.weight, heads)
        r = gather_rows(self.relation_embedding.weight, relations)
        t = gather_rows(self.node_embedding.weight, tails)
        t_bad = gather_rows(self.node_embedding.weight, corrupted)

        def plausibility(tail):
            diff = h + r - tail
            return -(diff * diff).sum(axis=1)

        ranking = -log_sigmoid(plausibility(t) - plausibility(t_bad)).mean()
        return ranking * self.kg_weight

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        hidden = self._propagate().data
        user_matrix = hidden[np.asarray(users)]
        item_matrix = hidden[self.ckg.item_nodes]
        return user_matrix @ item_matrix.T


def _leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """LeakyReLU expressed with existing primitives."""
    return x.relu() - (-x).relu() * slope

"""R-GCN (Schlichtkrull et al., ESWC 2018) — the R-GCN row of Tables III-V.

Relational GCN over the *collaborative* KG: every node (user, item,
entity) has a base embedding, and each layer aggregates neighbors with
per-relation transforms using basis decomposition
``W_r = Σ_b a_rb · V_b`` to bound the parameter count, with symmetric
degree normalization and a self-loop transform.

Originally built for KG completion, not recommendation — the paper notes
it needs the most training time and underperforms (Table III) because
the ``interact`` relation competes with every KG relation for capacity.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import (Embedding, Linear, Parameter, Tensor,
                        fused_rgcn_messages, gather_rows)
from ..data import Split
from .base import BaselineConfig, BPRModelRecommender


class RGCN(BPRModelRecommender):
    """R-GCN over the CKG with basis-decomposed relation transforms.

    Parameters
    ----------
    num_layers:
        Propagation depth.
    num_bases:
        Basis count ``B`` of the relation-transform decomposition.
    """

    name = "R-GCN"

    def __init__(self, config: Optional[BaselineConfig] = None,
                 num_layers: int = 2, num_bases: int = 4):
        super().__init__(config)
        self.num_layers = num_layers
        self.num_bases = num_bases

    # ------------------------------------------------------------------
    def build(self, split: Split) -> None:
        self.ckg = split.dataset.build_ckg(split.train)
        dim = self.config.dim
        self.node_embedding = Embedding(self.ckg.num_nodes, dim, rng=self.rng)
        self.bases = [
            [Linear(dim, dim, bias=False, rng=self.rng)
             for _ in range(self.num_bases)]
            for _ in range(self.num_layers)
        ]
        self.basis_coeffs = [
            Parameter(self.rng.normal(0, 0.3,
                                      size=(self.ckg.num_relations, self.num_bases)),
                      name=f"basis_coeffs_{layer}")
            for layer in range(self.num_layers)
        ]
        self.self_loops = [Linear(dim, dim, bias=False, rng=self.rng)
                           for _ in range(self.num_layers)]

        degree = np.bincount(self.ckg.tails, minlength=self.ckg.num_nodes)
        self._norm = 1.0 / np.maximum(degree, 1.0)

    def _propagate(self) -> Tensor:
        hidden = self.node_embedding.weight
        norm = Tensor(self._norm.reshape(-1, 1))
        for layer in range(self.num_layers):
            aggregated = fused_rgcn_messages(
                hidden, self.ckg.heads, self.ckg.relations,
                self.ckg.tails, self.ckg.num_nodes,
                [basis.weight for basis in self.bases[layer]],
                self.basis_coeffs[layer]) * norm
            hidden = (aggregated + self.self_loops[layer](hidden)).relu()
        return hidden

    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        hidden = self._propagate()
        user_vectors = gather_rows(hidden, users)
        item_vectors = gather_rows(hidden, self.ckg.item_nodes[items])
        return (user_vectors * item_vectors).sum(axis=1)

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        hidden = self._propagate().data
        user_matrix = hidden[np.asarray(users)]
        item_matrix = hidden[self.ckg.item_nodes]
        return user_matrix @ item_matrix.T

"""KGIN (Wang et al., WWW 2021) — the KGIN row of Tables III-V.

Learning Intents Behind Interactions with KG:

* **Intents**: each of ``P`` user intents is an attentive combination of
  KG relations, ``e_p = Σ_r softmax_r(w_pr) · e_r``;
* **User aggregation**: a user is the intent-gated mean of their
  interacted items' current representations, summed over layers;
* **Relational path-aware item aggregation**: items/entities aggregate
  KG neighbors gated elementwise by relation embeddings,
  ``e_i^{l+1} = mean_{(r,t)} e_r ⊙ e_t^l``.

Users have *no free embedding table* (they are derived from interactions
and intents), which is why KGIN degrades more gracefully on new items
than pure embedding baselines (Table IV) — item base embeddings remain
free parameters, so it still trails the subgraph methods.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import (Embedding, Parameter, Tensor,
                        fused_gather_mul_segment_sum, gather_rows, softmax)
from ..data import Split
from .base import BaselineConfig, BPRModelRecommender


class KGIN(BPRModelRecommender):
    """KGIN with full-graph relational aggregation.

    Parameters
    ----------
    num_layers:
        GNN depth over the KG / interaction graph.
    num_intents:
        Number of user intents ``P``.
    """

    name = "KGIN"

    def __init__(self, config: Optional[BaselineConfig] = None,
                 num_layers: int = 2, num_intents: int = 4):
        super().__init__(config)
        self.num_layers = num_layers
        self.num_intents = num_intents

    # ------------------------------------------------------------------
    def build(self, split: Split) -> None:
        dataset = split.dataset
        dim = self.config.dim
        kg = dataset.kg
        self.entity_embedding = Embedding(kg.num_entities, dim, rng=self.rng)
        self.relation_embedding = Embedding(kg.num_relations, dim, rng=self.rng)
        self.intent_logits = Parameter(
            self.rng.normal(0, 0.1, size=(self.num_intents, kg.num_relations)),
            name="intent_logits")
        self.user_intent_logits = Parameter(
            self.rng.normal(0, 0.1, size=(dataset.num_users, self.num_intents)),
            name="user_intent_logits")

        alignment = dataset.item_to_entity
        self._item_entity = (np.asarray(alignment, dtype=np.int64)
                             if alignment is not None
                             else np.arange(dataset.num_items, dtype=np.int64))
        if (self._item_entity < 0).any():
            raise ValueError("KGIN requires every item aligned to an entity")

        # KG aggregation index (symmetrized) with mean normalization.
        self._kg_heads = np.concatenate([kg.heads, kg.tails])
        self._kg_rels = np.concatenate([kg.relations, kg.relations])
        self._kg_tails = np.concatenate([kg.tails, kg.heads])
        degree = np.bincount(self._kg_heads, minlength=kg.num_entities)
        self._kg_norm = 1.0 / np.maximum(degree, 1.0)

        # User aggregation index over training interactions.
        self._ui_users = split.train.users
        self._ui_item_entities = self._item_entity[split.train.items]
        user_degree = np.bincount(self._ui_users, minlength=dataset.num_users)
        self._user_norm = 1.0 / np.maximum(user_degree, 1.0)

        self._cached_final = None

    # ------------------------------------------------------------------
    def _propagate(self):
        """Full-graph propagation; returns (user_final, entity_final)."""
        num_entities = self.entity_embedding.num_embeddings
        num_users = self.user_intent_logits.shape[0]

        intent_weights = softmax(self.intent_logits, axis=1)
        intents = intent_weights @ self.relation_embedding.weight    # (P, d)
        user_gate = softmax(self.user_intent_logits, axis=1) @ intents  # (U, d)

        entity_layers: List[Tensor] = [self.entity_embedding.weight]
        user_layers: List[Tensor] = []
        norm = Tensor(self._kg_norm.reshape(-1, 1))
        user_norm = Tensor(self._user_norm.reshape(-1, 1))
        for _ in range(self.num_layers):
            current = entity_layers[-1]
            # users aggregate their interacted items, gated by intents
            user_agg = fused_gather_mul_segment_sum(
                current, self._ui_item_entities, self._ui_users,
                num_users) * user_norm
            user_layers.append(user_agg * user_gate)
            # entities aggregate relation-gated neighbors
            entity_layers.append(fused_gather_mul_segment_sum(
                current, self._kg_tails, self._kg_heads, num_entities,
                y=self.relation_embedding.weight,
                y_indices=self._kg_rels) * norm)

        user_final = user_layers[0]
        for layer in user_layers[1:]:
            user_final = user_final + layer
        entity_final = entity_layers[0]
        for layer in entity_layers[1:]:
            entity_final = entity_final + layer
        return user_final, entity_final

    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        user_final, entity_final = self._propagate()
        user_vectors = gather_rows(user_final, users)
        item_vectors = gather_rows(entity_final, self._item_entity[items])
        return (user_vectors * item_vectors).sum(axis=1)

    # ------------------------------------------------------------------
    def score_users(self, users: Sequence[int]) -> np.ndarray:
        user_final, entity_final = self._propagate()
        user_matrix = user_final.data[np.asarray(users)]
        item_matrix = entity_final.data[self._item_entity]
        return user_matrix @ item_matrix.T

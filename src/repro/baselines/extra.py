"""Extension baselines from the paper's related work (§II).

These are not rows of Tables III-V but are implemented for completeness
and for ablation-style comparisons on the same substrate:

* :class:`LightGCN` — He et al., SIGIR 2020 [22]: embedding propagation
  over the user-item bipartite graph with no transforms or
  nonlinearities; final representation is the mean over layers.
* :class:`NCF` — He et al., WWW 2017 [6]: neural collaborative
  filtering; an MLP over the concatenation of user/item embeddings plus
  a GMF (elementwise product) branch.
* :class:`TransERec` — Bordes et al., 2013 [32] applied to
  recommendation: TransE embeddings trained on the *collaborative* KG,
  scoring items by the plausibility of the ``(user, interact, item)``
  triplet, ``-||u + r_interact - i||``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import (Embedding, Linear, Tensor, concat, gather_rows,
                        log_sigmoid, segment_sum)
from ..data import Split
from ..graph import INTERACT_RELATION
from .base import BaselineConfig, BPRModelRecommender


class LightGCN(BPRModelRecommender):
    """LightGCN: parameter-free propagation of user/item embeddings.

    ``e^{l+1} = D^{-1/2} A D^{-1/2} e^l`` over the bipartite interaction
    graph; the final embedding is the mean of layers ``0..L``.
    """

    name = "LightGCN"

    def __init__(self, config: Optional[BaselineConfig] = None,
                 num_layers: int = 2):
        super().__init__(config)
        self.num_layers = num_layers

    def build(self, split: Split) -> None:
        dataset = split.dataset
        dim = self.config.dim
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        self.embedding = Embedding(self.num_users + self.num_items, dim,
                                   rng=self.rng)

        users = split.train.users
        items = split.train.items + self.num_users
        # Symmetric normalized bipartite adjacency as an edge list.
        self._src = np.concatenate([users, items])
        self._dst = np.concatenate([items, users])
        degree = np.bincount(self._src, minlength=self.num_users + self.num_items)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1.0))
        self._edge_norm = inv_sqrt[self._src] * inv_sqrt[self._dst]

    def _propagate(self) -> Tensor:
        num_nodes = self.num_users + self.num_items
        norm = Tensor(self._edge_norm.reshape(-1, 1))
        layers: List[Tensor] = [self.embedding.weight]
        for _ in range(self.num_layers):
            messages = gather_rows(layers[-1], self._src) * norm
            layers.append(segment_sum(messages, self._dst, num_nodes))
        total = layers[0]
        for layer in layers[1:]:
            total = total + layer
        return total * (1.0 / (self.num_layers + 1))

    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        hidden = self._propagate()
        user_vectors = gather_rows(hidden, users)
        item_vectors = gather_rows(hidden, items + self.num_users)
        return (user_vectors * item_vectors).sum(axis=1)

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        hidden = self._propagate().data
        return hidden[np.asarray(users)] @ hidden[self.num_users:].T


class NCF(BPRModelRecommender):
    """Neural Collaborative Filtering: GMF branch + MLP branch."""

    name = "NCF"

    def __init__(self, config: Optional[BaselineConfig] = None,
                 hidden_dim: int = 32):
        super().__init__(config)
        self.hidden_dim = hidden_dim

    def build(self, split: Split) -> None:
        dataset = split.dataset
        dim = self.config.dim
        self.user_embedding = Embedding(dataset.num_users, dim, rng=self.rng)
        self.item_embedding = Embedding(dataset.num_items, dim, rng=self.rng)
        self.mlp_hidden = Linear(2 * dim, self.hidden_dim, rng=self.rng)
        self.head = Linear(self.hidden_dim + dim, 1, rng=self.rng)

    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        user_vectors = self.user_embedding(users)
        item_vectors = self.item_embedding(items)
        gmf = user_vectors * item_vectors
        mlp = self.mlp_hidden(concat([user_vectors, item_vectors],
                                     axis=1)).relu()
        return self.head(concat([gmf, mlp], axis=1)).reshape(users.size)

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        num_items = self.item_embedding.num_embeddings
        scores = np.empty((len(users), num_items))
        all_items = np.arange(num_items)
        for row, user in enumerate(users):
            user_array = np.full(num_items, user, dtype=np.int64)
            scores[row] = self.pair_scores(user_array, all_items).data
        return scores


class TransERec(BPRModelRecommender):
    """TransE over the collaborative KG, recommending by triplet score.

    Trains ``-||h + r - t||`` ranking on *all* CKG edges (interactions
    included); recommendation scores are the plausibility of
    ``(user, interact, item)``.  A pure link-prediction view of
    recommendation (§II-C's "earlier methods").
    """

    name = "TransE"

    def __init__(self, config: Optional[BaselineConfig] = None,
                 kg_batch: int = 256):
        super().__init__(config)
        self.kg_batch = kg_batch

    def build(self, split: Split) -> None:
        self.ckg = split.dataset.build_ckg(split.train)
        dim = self.config.dim
        self.node_embedding = Embedding(self.ckg.num_nodes, dim, rng=self.rng)
        self.relation_embedding = Embedding(self.ckg.num_relations, dim,
                                            rng=self.rng)

    def _plausibility(self, heads: Tensor, relation: Tensor, tails: Tensor) -> Tensor:
        diff = heads + relation - tails
        return -(diff * diff).sum(axis=1)

    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        h = gather_rows(self.node_embedding.weight, users)
        t = gather_rows(self.node_embedding.weight, self.ckg.item_nodes[items])
        r = gather_rows(self.relation_embedding.weight,
                        np.full(users.size, INTERACT_RELATION, dtype=np.int64))
        return self._plausibility(h, r, t)

    def extra_loss(self, users, pos, neg) -> Optional[Tensor]:
        """TransE ranking on random CKG edges (KG structure learning)."""
        sample = self.rng.integers(0, self.ckg.num_edges, size=self.kg_batch)
        heads = gather_rows(self.node_embedding.weight, self.ckg.heads[sample])
        tails = gather_rows(self.node_embedding.weight, self.ckg.tails[sample])
        relations = gather_rows(self.relation_embedding.weight,
                                self.ckg.relations[sample])
        corrupted = gather_rows(
            self.node_embedding.weight,
            self.rng.integers(0, self.ckg.num_nodes, size=self.kg_batch))
        true_score = self._plausibility(heads, relations, tails)
        false_score = self._plausibility(heads, relations, corrupted)
        return -log_sigmoid(true_score - false_score).mean() * 0.5

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        nodes = self.node_embedding.weight.data
        relation = self.relation_embedding.weight.data[INTERACT_RELATION]
        item_matrix = nodes[self.ckg.item_nodes]
        scores = np.empty((len(users), item_matrix.shape[0]))
        for row, user in enumerate(users):
            diff = nodes[user] + relation - item_matrix
            scores[row] = -(diff**2).sum(axis=1)
        return scores

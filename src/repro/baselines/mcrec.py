"""MCRec (Hu et al., KDD 2018) — the meta-path + convolution method of §II-B.

"Extracts some pre-defined patterns of paths (meta-paths) as features
and utilizes a convolutional layer to encode the features into
interactions."  For each (user, item) pair and each meta-path type we
sample path instances, embed their node sequences, encode each instance
with a width-2 convolution + max pooling, pool instances per meta-path
(mean), and score with an MLP over ``[user ⊕ item ⊕ path features]``.

Meta-paths used (mirroring the paper's recommendation setting):

* ``U-I-U-I`` — collaborative;
* ``U-I-E-I`` — attribute similarity through the KG.

Like the other embedding methods, MCRec cannot handle new items (their
embeddings and path instances are missing), which is why the paper's
non-embedding line supersedes this family.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import (Embedding, Linear, Tensor, concat, gather_rows,
                        segment_max)
from ..data import Split
from .base import BaselineConfig, BPRModelRecommender

#: nodes per path instance (all our meta-paths have 4 nodes)
PATH_LENGTH = 4


class MCRec(BPRModelRecommender):
    """MCRec with sampled meta-path instances.

    Parameters
    ----------
    instances_per_path:
        Path instances sampled per (user, item, meta-path).
    """

    name = "MCRec"

    def __init__(self, config: Optional[BaselineConfig] = None,
                 instances_per_path: int = 3):
        super().__init__(config)
        self.instances_per_path = instances_per_path

    # ------------------------------------------------------------------
    def build(self, split: Split) -> None:
        dataset = split.dataset
        dim = self.config.dim
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        num_entities = dataset.kg.num_entities
        # one embedding space: users, then items, then entities
        self._item_offset = self.num_users
        self._entity_offset = self.num_users + self.num_items
        self.node_embedding = Embedding(
            self._entity_offset + num_entities, dim, rng=self.rng)

        self.conv = Linear(2 * dim, dim, rng=self.rng)
        self.mlp = Linear(4 * dim, 16, rng=self.rng)     # u, i, 2 path feats
        self.head = Linear(16, 1, rng=self.rng)

        # Adjacency indexes for path sampling.
        self._user_items: Dict[int, np.ndarray] = {}
        for user in split.train.users_with_interactions():
            self._user_items[user] = np.fromiter(split.train.positives(user),
                                                 dtype=np.int64)
        self._item_users: Dict[int, List[int]] = {}
        for user, item in zip(split.train.users.tolist(),
                              split.train.items.tolist()):
            self._item_users.setdefault(item, []).append(user)

        alignment = dataset.item_to_entity
        item_entity = (np.asarray(alignment, dtype=np.int64)
                       if alignment is not None
                       else np.arange(self.num_items, dtype=np.int64))
        kg = dataset.kg
        self._item_attrs: Dict[int, List[int]] = {}
        self._attr_items: Dict[int, List[int]] = {}
        entity_item = {int(item_entity[i]): i for i in range(self.num_items)
                       if item_entity[i] >= 0}
        for head, tail in zip(kg.heads.tolist(), kg.tails.tolist()):
            item = entity_item.get(head)
            if item is not None and tail not in entity_item:
                self._item_attrs.setdefault(item, []).append(tail)
                self._attr_items.setdefault(tail, []).append(item)

    # ------------------------------------------------------------------
    # Path sampling (node id sequences in the unified embedding space)
    # ------------------------------------------------------------------
    def _sample_uiui(self, user: int, item: int) -> Optional[List[int]]:
        """u -> i' -> u' -> i: through a co-interacting user."""
        middle_users = self._item_users.get(item)
        if not middle_users:
            return None
        other = int(self.rng.choice(middle_users))
        other_items = self._user_items.get(other)
        if other_items is None or other_items.size == 0:
            return None
        bridge = int(self.rng.choice(other_items))
        return [user,
                self._item_offset + bridge,
                other,
                self._item_offset + item]

    def _sample_uiei(self, user: int, item: int) -> Optional[List[int]]:
        """u -> i' -> e -> i: through a shared KG attribute."""
        attrs = self._item_attrs.get(item)
        if not attrs:
            return None
        attr = int(self.rng.choice(attrs))
        siblings = self._attr_items.get(attr)
        if not siblings:
            return None
        bridge = int(self.rng.choice(siblings))
        return [user,
                self._item_offset + bridge,
                self._entity_offset + attr,
                self._item_offset + item]

    def _path_feature(self, pairs: Sequence[Tuple[int, int]],
                      sampler) -> Tensor:
        """Mean-pooled conv encoding of sampled instances per pair.

        Returns a ``(len(pairs), dim)`` tensor; pairs with no instance get
        zeros.
        """
        dim = self.config.dim
        sequences: List[List[int]] = []
        owners: List[int] = []
        for index, (user, item) in enumerate(pairs):
            for _ in range(self.instances_per_path):
                path = sampler(int(user), int(item))
                if path is not None:
                    sequences.append(path)
                    owners.append(index)
        if not sequences:
            return Tensor(np.zeros((len(pairs), dim)))

        node_ids = np.asarray(sequences, dtype=np.int64)   # (P, 4)
        flat = self.node_embedding(node_ids.ravel())       # (P*4, d)
        num_paths = node_ids.shape[0]

        # Width-2 convolution over the sequence: windows (0,1),(1,2),(2,3).
        window_rows = []
        for start in (0, 1, 2):
            left = gather_rows(flat, np.arange(num_paths) * PATH_LENGTH + start)
            right = gather_rows(flat, np.arange(num_paths) * PATH_LENGTH + start + 1)
            window_rows.append(self.conv(concat([left, right], axis=1)).relu())
        # Max over windows (per path), then mean over instances (per pair).
        stacked = concat(window_rows, axis=0)              # (3P, d)
        window_owner = np.tile(np.arange(num_paths), 3)
        per_path = segment_max(stacked, window_owner, num_paths, fill=0.0)

        counts = np.bincount(owners, minlength=len(pairs))
        from ..autodiff import segment_sum
        pooled = segment_sum(per_path, np.asarray(owners), len(pairs))
        inverse = Tensor((1.0 / np.maximum(counts, 1.0)).reshape(-1, 1))
        return pooled * inverse

    # ------------------------------------------------------------------
    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        pairs = list(zip(users.tolist(), items.tolist()))
        user_vectors = self.node_embedding(users)
        item_vectors = self.node_embedding(items + self._item_offset)
        uiui = self._path_feature(pairs, self._sample_uiui)
        uiei = self._path_feature(pairs, self._sample_uiei)
        features = concat([user_vectors, item_vectors, uiui, uiei], axis=1)
        return self.head(self.mlp(features).relu()).reshape(users.size)

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        scores = np.empty((len(users), self.num_items))
        all_items = np.arange(self.num_items)
        for row, user in enumerate(users):
            user_array = np.full(self.num_items, user, dtype=np.int64)
            scores[row] = self.pair_scores(user_array, all_items).data
        return scores

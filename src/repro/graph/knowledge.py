"""Knowledge graph triplet store (§III of the paper).

A directed multi-relational graph ``G_k = (V_k, E_k)`` held as three
parallel integer arrays ``(heads, relations, tails)``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np


def int_rows(rows, width: int, what: str) -> np.ndarray:
    """``rows`` as a contiguous ``(n, width)`` int64 array.

    ``rows`` is an array or any iterable of ``width``-tuples (a
    generator or ``zip`` is drained once).  An empty input becomes
    ``(0, width)``; any other shape is rejected, never reshaped.
    """
    if not isinstance(rows, (np.ndarray, list, tuple)):
        rows = list(rows)
    array = np.ascontiguousarray(rows, dtype=np.int64)
    if not array.size:
        return np.empty((0, width), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != width:
        raise ValueError(f"{what} array must have shape (n, {width})")
    return array


class KnowledgeGraph:
    """Immutable triplet store over dense entity/relation id spaces.

    Parameters
    ----------
    num_entities, num_relations:
        Sizes of the entity and relation id spaces.
    triplets:
        ``(n, 3)`` array or iterable of ``(head, relation, tail)``.
        Duplicates are dropped; the arrays are sorted by triplet.
    """

    def __init__(self, num_entities: int, num_relations: int,
                 triplets: Iterable[Tuple[int, int, int]]):
        if num_entities <= 0 or num_relations <= 0:
            raise ValueError("num_entities and num_relations must be positive")
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)

        array = int_rows(triplets, 3, "triplet")
        if array.size:
            entity_ids = array[:, [0, 2]]
            if entity_ids.min() < 0 or entity_ids.max() >= num_entities:
                raise ValueError("triplet entity id out of range")
            if array[:, 1].min() < 0 or array[:, 1].max() >= num_relations:
                raise ValueError("triplet relation id out of range")
        # Dedup + lexicographic sort through one composite key per triplet.
        if num_entities * num_relations < 2 ** 62 // num_entities:
            keys = np.unique((array[:, 0] * np.int64(num_relations) + array[:, 1])
                             * np.int64(num_entities) + array[:, 2])
            self.heads = keys // (num_entities * num_relations)
            remainder = keys % (num_entities * num_relations)
            self.relations = remainder // num_entities
            self.tails = remainder % num_entities
        else:  # composite key would overflow int64
            array = np.unique(array, axis=0)
            self.heads = array[:, 0].copy()
            self.relations = array[:, 1].copy()
            self.tails = array[:, 2].copy()

    # ------------------------------------------------------------------
    @property
    def num_triplets(self) -> int:
        return int(self.heads.size)

    def entity_degrees(self) -> np.ndarray:
        """Total (in + out) degree of each entity."""
        return (np.bincount(self.heads, minlength=self.num_entities)
                + np.bincount(self.tails, minlength=self.num_entities))

    def relation_counts(self) -> np.ndarray:
        """Number of triplets per relation."""
        return np.bincount(self.relations, minlength=self.num_relations)

    def triplets_per_item(self, num_items: int) -> float:
        """KG density proxy: triplets divided by item count (Table II style)."""
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        return self.num_triplets / float(num_items)

    def __repr__(self) -> str:
        return (f"KnowledgeGraph(entities={self.num_entities}, "
                f"relations={self.num_relations}, triplets={self.num_triplets})")

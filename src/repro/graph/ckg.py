"""Collaborative knowledge graph (CKG, §III of the paper).

Merges the user-item graph and the knowledge graph into one node/relation
space:

* node ids: users ``[0, U)``, KG entities ``[U, U + E)``, then one fresh
  node per item that has no aligned entity;
* relation ids: ``0`` is ``interact``, KG relations follow at ``1..R_k``,
  and every relation ``r`` gets a reverse twin ``r + num_base_relations``
  (the paper adds reverse relations so a user can reach an item in exactly
  ``L`` hops, §IV-B).

Edges (including reverses) are stored in CSR-by-head order so that the
layerwise expansion of Eq. (9) — "all edges whose head is in the frontier"
— is a handful of array slices.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .knowledge import KnowledgeGraph
from .user_item import UserItemGraph

INTERACT_RELATION = 0

CKG_META_NAME = "ckg_meta.json"
_CKG_ARRAYS = ("heads", "relations", "tails", "indptr", "item_nodes")
#: the integer sizes saved in the meta JSON next to the arrays
_CKG_SIZES = ("num_users", "num_items", "num_entities", "num_base_relations",
              "num_kg_relations", "num_user_relations", "num_nodes")


class CollaborativeKG:
    """Merged user-item + KG graph with reverse relations and CSR adjacency.

    Use :meth:`build` rather than calling the constructor directly.
    """

    def __init__(self, num_users: int, num_items: int, num_entities: int,
                 num_base_relations: int, item_nodes: np.ndarray,
                 heads: np.ndarray, relations: np.ndarray, tails: np.ndarray,
                 num_nodes: int):
        self.num_users = num_users
        self.num_items = num_items
        self.num_entities = num_entities
        #: relations before adding reverses (interact + KG relations)
        self.num_base_relations = num_base_relations
        #: total relations including reverse twins
        self.num_relations = 2 * num_base_relations
        #: item-side KG relation count (refined by :meth:`build`)
        self.num_kg_relations = num_base_relations - 1
        #: user-side relation count (refined by :meth:`build`)
        self.num_user_relations = 0
        self.num_nodes = num_nodes
        #: node id of each item (alignment target entity, or fresh node)
        self.item_nodes = item_nodes

        order = np.lexsort((tails, relations, heads))
        self.heads = heads[order]
        self.relations = relations[order]
        self.tails = tails[order]
        self.num_edges = int(self.heads.size)

        # CSR index: edge ids of out-edges of node n are
        # [indptr[n], indptr[n + 1]).
        counts = np.bincount(self.heads, minlength=num_nodes)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])

        self._item_node_to_item: Dict[int, int] = {
            int(node): item for item, node in enumerate(item_nodes.tolist())
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, ui_graph: UserItemGraph, kg: KnowledgeGraph,
              item_to_entity: Optional[Sequence[int]] = None,
              user_triplets: Optional[Sequence[Tuple[int, int, int]]] = None,
              num_user_relations: int = 0) -> "CollaborativeKG":
        """Assemble a CKG from interactions, a KG, and an item-entity alignment.

        Parameters
        ----------
        ui_graph:
            The user-item interactions.
        kg:
            Side-information knowledge graph.
        item_to_entity:
            ``item_to_entity[i]`` is the KG entity aligned with item ``i``
            (the matching set ``M`` of §III), or ``-1`` for unaligned items,
            which receive fresh CKG nodes only reachable through
            ``interact`` edges.  Defaults to the identity alignment
            (item ``i`` is entity ``i``), which requires
            ``kg.num_entities >= ui_graph.num_items``.
        user_triplets:
            Optional user-side KG: ``(user, relation, user)`` triplets, e.g.
            the disease-disease links of the DisGeNet experiment (§V-D).
            Relation ids live in ``[0, num_user_relations)`` and are mapped
            after the item-side KG relations.
        num_user_relations:
            Size of the user-side relation id space.
        """
        num_users = ui_graph.num_users
        num_items = ui_graph.num_items
        num_entities = kg.num_entities

        if item_to_entity is None:
            if num_entities < num_items:
                raise ValueError(
                    "identity alignment requires at least as many entities as items"
                )
            alignment = np.arange(num_items, dtype=np.int64)
        else:
            alignment = np.asarray(list(item_to_entity), dtype=np.int64)
            if alignment.shape != (num_items,):
                raise ValueError("item_to_entity must have one entry per item")
            if alignment.max(initial=-1) >= num_entities:
                raise ValueError("item_to_entity references unknown entity")

        # Assign node ids.
        entity_offset = num_users
        next_fresh = num_users + num_entities
        item_nodes = np.empty(num_items, dtype=np.int64)
        for item in range(num_items):
            entity = alignment[item]
            if entity >= 0:
                item_nodes[item] = entity_offset + entity
            else:
                item_nodes[item] = next_fresh
                next_fresh += 1
        num_nodes = next_fresh

        num_user_relations = int(num_user_relations)
        if user_triplets and num_user_relations <= 0:
            raise ValueError("user_triplets given but num_user_relations is 0")
        # interact + KG relations + user-side relations
        num_base_relations = 1 + kg.num_relations + num_user_relations

        # Forward edges: interactions then KG triplets (relations shifted by 1).
        ui_heads = ui_graph.users
        ui_tails = item_nodes[ui_graph.items]
        kg_heads = kg.heads + entity_offset
        kg_tails = kg.tails + entity_offset

        heads = np.concatenate([ui_heads, kg_heads])
        rels = np.concatenate([
            np.full(ui_heads.size, INTERACT_RELATION, dtype=np.int64),
            kg.relations + 1,
        ])
        tails = np.concatenate([ui_tails, kg_tails])

        if user_triplets:
            triples = np.asarray([(int(a), int(r), int(b)) for a, r, b in user_triplets],
                                 dtype=np.int64)
            if triples[:, [0, 2]].min() < 0 or triples[:, [0, 2]].max() >= num_users:
                raise ValueError("user triplet references unknown user")
            if triples[:, 1].min() < 0 or triples[:, 1].max() >= num_user_relations:
                raise ValueError("user triplet relation out of range")
            heads = np.concatenate([heads, triples[:, 0]])
            rels = np.concatenate([rels, triples[:, 1] + 1 + kg.num_relations])
            tails = np.concatenate([tails, triples[:, 2]])

        # Reverse twins.
        all_heads = np.concatenate([heads, tails])
        all_rels = np.concatenate([rels, rels + num_base_relations])
        all_tails = np.concatenate([tails, heads])

        ckg = cls(num_users, num_items, num_entities, num_base_relations,
                  item_nodes, all_heads, all_rels, all_tails, num_nodes)
        ckg.num_kg_relations = kg.num_relations
        ckg.num_user_relations = num_user_relations
        return ckg

    # ------------------------------------------------------------------
    # Online updates
    # ------------------------------------------------------------------
    def has_interaction(self, user: int, item: int) -> bool:
        """Whether the ``interact`` edge ``user -> item`` is present."""
        if not 0 <= user < self.num_users:
            raise ValueError(f"user {user} out of range")
        if not 0 <= item < self.num_items:
            raise ValueError(f"item {item} out of range")
        lo, hi = self.indptr[user], self.indptr[user + 1]
        mask = self.relations[lo:hi] == INTERACT_RELATION
        return bool(np.any(self.tails[lo:hi][mask] == self.item_nodes[item]))

    def add_interactions(self, pairs: Sequence[Tuple[int, int]]) -> "CollaborativeKG":
        """New CKG with ``(user, item)`` interactions appended.

        The online-serving delta: each pair contributes an ``interact``
        edge plus its reverse twin, and the node space is unchanged
        (items and users already have nodes).  The new edges are
        inserted at their CSR positions, so the result's arrays are
        bitwise those of building the CKG over the union interaction
        set, without re-sorting the existing edges.  The result is an
        in-RAM :class:`CollaborativeKG`, also for a memory-mapped
        ``self``, which is never mutated — callers swap in the returned
        graph, so readers of the old one stay consistent.

        Duplicate interactions (within the batch or against the existing
        graph) raise ``ValueError`` naming the offending pair.
        """
        pair_list = [(int(u), int(i)) for u, i in pairs]
        if not pair_list:
            raise ValueError("pairs must be non-empty")
        seen = set()
        for user, item in pair_list:
            if (user, item) in seen:
                raise ValueError(
                    f"duplicate interaction ({user}, {item}) in batch")
            seen.add((user, item))
            if self.has_interaction(user, item):
                raise ValueError(
                    f"interaction ({user}, {item}) already present")

        pair_array = np.asarray(pair_list, dtype=np.int64)
        users = pair_array[:, 0]
        item_tails = self.item_nodes[pair_array[:, 1]]
        interact = np.full(users.size, INTERACT_RELATION, dtype=np.int64)
        heads = np.concatenate([users, item_tails])
        rels = np.concatenate([interact, interact + self.num_base_relations])
        tails = np.concatenate([item_tails, users])
        # sorted, so edges inserted at one position land in CSR order
        order = np.lexsort((tails, rels, heads))
        heads, rels, tails = heads[order], rels[order], tails[order]

        # Each new edge's position in its head's CSR range, whose
        # (relation, tail) keys ascend: one searchsorted over the ranges
        # of the heads written to, keyed by (head rank, relation, tail).
        written, rank = np.unique(heads, return_inverse=True)
        starts = self.indptr[written]
        degrees = self.indptr[written + 1] - starts
        edge_ids = self.out_edge_ids(written)
        span = np.int64(self.num_relations) * self.num_nodes
        keys = (np.repeat(np.arange(written.size), degrees) * span
                + self.relations[edge_ids] * np.int64(self.num_nodes)
                + self.tails[edge_ids])
        new_keys = rank * span + rels * np.int64(self.num_nodes) + tails
        offsets = np.cumsum(degrees) - degrees
        at = starts[rank] + np.searchsorted(keys, new_keys) - offsets[rank]

        updated = object.__new__(CollaborativeKG)
        for name in _CKG_SIZES + ("num_relations", "item_nodes",
                                  "_item_node_to_item"):
            setattr(updated, name, getattr(self, name))
        updated.heads = np.insert(np.asarray(self.heads), at, heads)
        updated.relations = np.insert(np.asarray(self.relations), at, rels)
        updated.tails = np.insert(np.asarray(self.tails), at, tails)
        updated.num_edges = int(updated.heads.size)
        counts = np.bincount(heads, minlength=self.num_nodes)
        updated.indptr = self.indptr + np.concatenate([[0], np.cumsum(counts)])
        return updated

    # ------------------------------------------------------------------
    # Node id mapping
    # ------------------------------------------------------------------
    def user_node(self, user: int) -> int:
        if not 0 <= user < self.num_users:
            raise ValueError(f"user {user} out of range")
        return int(user)

    def item_node(self, item: int) -> int:
        if not 0 <= item < self.num_items:
            raise ValueError(f"item {item} out of range")
        return int(self.item_nodes[item])

    def entity_node(self, entity: int) -> int:
        if not 0 <= entity < self.num_entities:
            raise ValueError(f"entity {entity} out of range")
        return int(self.num_users + entity)

    def node_to_item(self, node: int) -> Optional[int]:
        """Item id whose node is ``node``, or ``None``."""
        return self._item_node_to_item.get(int(node))

    def is_user_node(self, node: int) -> bool:
        return 0 <= node < self.num_users

    def reverse_relation(self, relation: int) -> int:
        """The id of the reverse twin of ``relation`` (involution)."""
        if relation < self.num_base_relations:
            return relation + self.num_base_relations
        return relation - self.num_base_relations

    def relation_name(self, relation: int) -> str:
        """Human-readable relation label for explanations (§V-F)."""
        base = relation % self.num_base_relations
        prefix = "-" if relation >= self.num_base_relations else ""
        if base == INTERACT_RELATION:
            return f"{prefix}interact"
        return f"{prefix}rel_{base - 1}"

    # ------------------------------------------------------------------
    # Neighborhood expansion
    # ------------------------------------------------------------------
    def out_edge_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Edge ids of all edges whose head is in ``nodes`` (Eq. 9).

        ``nodes`` must contain valid node ids; duplicates yield duplicate
        edge ids, so callers normally pass a uniqued frontier.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        stops = self.indptr[nodes + 1]
        lengths = stops - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Vectorized concatenation of the ranges [starts[k], stops[k]): the
        # position of each output element within its block is
        # arange(total) minus the block's offset in the output.
        block_offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        within_block = np.arange(total, dtype=np.int64) - np.repeat(block_offsets, lengths)
        return np.repeat(starts, lengths) + within_block

    def out_edges(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(heads, relations, tails)`` of edges out of ``nodes``."""
        edge_ids = self.out_edge_ids(nodes)
        return self.heads[edge_ids], self.relations[edge_ids], self.tails[edge_ids]

    def out_degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def average_degree(self) -> float:
        """Mean out-degree over all nodes (the paper's D-bar)."""
        return self.num_edges / float(self.num_nodes)

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------
    def normalized_adjacency(self) -> sp.csr_matrix:
        """Column-normalized adjacency ``M`` used by PPR (Eq. 13).

        ``M[i, j] = 1 / outdeg(j)`` if there is an edge ``j -> i`` in the
        CKG (reverse edges included, so the walk is effectively symmetric).
        Columns of isolated nodes are all-zero; the PPR iteration's restart
        term keeps the scores well-defined regardless.
        """
        out_degrees = np.diff(self.indptr).astype(np.float64)
        weights = 1.0 / out_degrees[self.heads]
        matrix = sp.csr_matrix(
            (weights, (self.tails, self.heads)),
            shape=(self.num_nodes, self.num_nodes),
        )
        matrix.sum_duplicates()
        return matrix

    # ------------------------------------------------------------------
    # On-disk layout (the mmap adjacency tier; see docs/storage.md)
    # ------------------------------------------------------------------
    def save_npy(self, directory: str) -> str:
        """Write the CSR arrays as raw ``.npy`` files plus a meta JSON.

        The arrays go to disk already in CSR-by-head order with the
        precomputed ``indptr``, so :func:`load_npy` can reopen them as
        read-only memory maps without re-sorting — the graph half of the
        out-of-core tier.  Returns the directory.
        """
        os.makedirs(directory, exist_ok=True)
        for name in _CKG_ARRAYS:
            np.save(os.path.join(directory, f"{name}.npy"),
                    getattr(self, name))
        meta = {"format": "repro-ckg-npy"}
        meta.update((name, int(getattr(self, name))) for name in _CKG_SIZES)
        tmp = os.path.join(directory, CKG_META_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=1, sort_keys=True)
        os.replace(tmp, os.path.join(directory, CKG_META_NAME))
        return directory

    def __repr__(self) -> str:
        return (f"CollaborativeKG(nodes={self.num_nodes}, edges={self.num_edges}, "
                f"relations={self.num_relations})")


class MmapCollaborativeKG(CollaborativeKG):
    """A CKG served straight off the ``.npy`` files of :meth:`save_npy`.

    The edge arrays stay memory-mapped (read-only) instead of resident,
    and construction skips the lexsort/recount of the base constructor —
    the files already hold sorted CSR arrays, bitwise-identical to the
    in-RAM graph they were saved from, so every downstream consumer
    behaves identically.  Pickling ships only the directory path:
    spawn-started workers (and remote eval processes) reopen the maps by
    path instead of copying the arrays through the pickle stream.
    """

    def __init__(self, directory: str, mmap: bool = True):
        self.directory = directory
        self.mmap = bool(mmap)
        with open(os.path.join(directory, CKG_META_NAME),
                  encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("format") != "repro-ckg-npy":
            raise ValueError(f"{directory} does not hold a saved CKG")
        for name in _CKG_SIZES:
            setattr(self, name, int(meta[name]))
        self.num_relations = 2 * self.num_base_relations
        mode = "r" if self.mmap else None
        for name in _CKG_ARRAYS:
            path = os.path.join(directory, f"{name}.npy")
            setattr(self, name, np.load(path, mmap_mode=mode))
        # indptr and item_nodes are tiny and hot — keep them resident.
        self.indptr = np.asarray(self.indptr[:])
        self.item_nodes = np.asarray(self.item_nodes[:])
        self.num_edges = int(self.heads.size)
        self._item_node_to_item = {
            int(node): item
            for item, node in enumerate(self.item_nodes.tolist())
        }

    def __reduce__(self):
        return (load_npy, (self.directory, self.mmap))

    def __repr__(self) -> str:
        return (f"MmapCollaborativeKG(nodes={self.num_nodes}, "
                f"edges={self.num_edges}, dir={self.directory!r})")


def load_npy(directory: str, mmap: bool = True) -> MmapCollaborativeKG:
    """Reopen a CKG saved by :meth:`CollaborativeKG.save_npy`."""
    return MmapCollaborativeKG(directory, mmap=mmap)

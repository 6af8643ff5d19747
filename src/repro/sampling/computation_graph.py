"""Computation graphs for subgraph message passing (§IV-C of the paper).

Three constructions live here:

* :func:`build_ui_computation_graph` — the per-pair computation graph
  ``C_{u,i|L}`` on the exact U-I subgraph of Definition 2 (used by the
  ``KUCNet-UI`` variant and by the Fig. 6 cost comparison);
* :func:`build_user_centric_graph` — the merged user-centric graph
  ``C_{u|L}`` of Eq. (9)-(11), optionally pruned per head node by PPR
  top-K (Algorithm 1 lines 3-5) or by random sampling (the
  ``KUCNet-random`` ablation), batched over several users at once;
* :func:`ui_subgraph` — the raw node/edge sets of Definition 2, for
  inspection and property tests.

Batched representation
----------------------
A :class:`ComputationGraph` covers a *batch* of users ("slots").  Each
layer ``l`` has a node table — arrays ``slots[l]``, ``nodes[l]`` of equal
length, one row per (user-slot, CKG-node) pair reached at that depth —
and an edge list whose ``src_pos``/``dst_pos`` index rows of the tables
at layers ``l-1`` / ``l``.  Message passing is then a gather /
transform / segment-sum per layer, fully vectorized across users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .. import telemetry
from ..graph import CollaborativeKG
from ..ppr import PPRScoreLike, SparsePPRScores


@dataclass
class LayerEdges:
    """Edges of one message-passing layer.

    ``src_pos[e]`` is the row of the *previous* layer's node table holding
    the edge's head; ``dst_pos[e]`` the row of *this* layer's table holding
    its tail; ``relations[e]`` the CKG relation id.  ``heads``/``tails``
    keep the global CKG node ids for interpretability output.
    """

    src_pos: np.ndarray
    relations: np.ndarray
    dst_pos: np.ndarray
    heads: np.ndarray
    tails: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.src_pos.size)


@dataclass
class ComputationGraph:
    """Layered computation graph for a batch of users (see module doc)."""

    users: np.ndarray                       # user id per slot
    num_ckg_nodes: int
    slots: List[np.ndarray] = field(default_factory=list)   # per layer
    nodes: List[np.ndarray] = field(default_factory=list)   # per layer
    layers: List[LayerEdges] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def num_users(self) -> int:
        return int(self.users.size)

    def layer_size(self, layer: int) -> int:
        return int(self.nodes[layer].size)

    def total_edges(self) -> int:
        """Total number of edges across layers (the cost measure of Fig. 6)."""
        return sum(layer.num_edges for layer in self.layers)

    def final_rows(self, slot: int, nodes: np.ndarray) -> np.ndarray:
        """Rows of the last layer's table holding ``nodes`` for ``slot``.

        Returns ``-1`` for nodes the propagation never reached (their
        representation is defined as **0** by the paper, Algorithm 1).
        """
        return self.rows_at(self.depth, slot, nodes)

    def rows_at(self, layer: int, slot: int, nodes: np.ndarray) -> np.ndarray:
        """Rows of layer ``layer``'s node table for ``nodes`` of ``slot``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.rows_for_pairs(layer, np.full(nodes.size, slot, dtype=np.int64),
                                   nodes)

    def rows_for_pairs(self, layer: int, slots: np.ndarray,
                       nodes: np.ndarray) -> np.ndarray:
        """Vectorized row lookup for (slot, node) pairs at ``layer``.

        Returns ``-1`` where a pair is absent.  Relies on the node table
        being sorted by the composite key ``slot * num_ckg_nodes + node``,
        which the builders guarantee.
        """
        wanted = (np.asarray(slots, dtype=np.int64) * self.num_ckg_nodes
                  + np.asarray(nodes, dtype=np.int64))
        keys = self.slots[layer].astype(np.int64) * self.num_ckg_nodes + self.nodes[layer]
        if keys.size == 0:
            # An empty node table (a frontier with no surviving out-edges)
            # holds no pair; clip against size - 1 == -1 would wrap around.
            return np.full(wanted.size, -1, dtype=np.int64)
        positions = np.searchsorted(keys, wanted)
        positions = np.clip(positions, 0, keys.size - 1)
        found = keys[positions] == wanted
        return np.where(found, positions, -1)

    def restrict_to_rows(self, last_rows: np.ndarray) -> "ComputationGraph":
        """This graph with only the edges on a path to ``last_rows``.

        Walks from layer ``L`` down: an edge stays iff its ``dst_pos``
        row is needed, and the kept edges' ``src_pos`` rows are the
        needed rows one layer down.  Kept edges keep their order and the
        node tables are shared, not copied, so every needed row sums the
        same messages in the same order as on this graph, which is left
        unmodified.
        """
        layers: List[LayerEdges] = []
        needed = np.zeros(self.layer_size(self.depth), dtype=bool)
        needed[last_rows] = True
        for level in range(self.depth, 0, -1):
            edges = self.layers[level - 1]
            keep = needed[edges.dst_pos]
            layers.append(LayerEdges(
                src_pos=edges.src_pos[keep], relations=edges.relations[keep],
                dst_pos=edges.dst_pos[keep], heads=edges.heads[keep],
                tails=edges.tails[keep]))
            needed = np.zeros(self.layer_size(level - 1), dtype=bool)
            needed[layers[-1].src_pos] = True
        return ComputationGraph(users=self.users,
                                num_ckg_nodes=self.num_ckg_nodes,
                                slots=list(self.slots), nodes=list(self.nodes),
                                layers=layers[::-1])


def build_user_centric_graph(
    ckg: CollaborativeKG,
    users: Sequence[int],
    depth: int,
    ppr_scores: Optional[PPRScoreLike] = None,
    k: Optional[Union[int, Sequence[Optional[int]]]] = None,
    sampler: str = "ppr",
    rng: Optional[np.random.Generator] = None,
    degree_normalized: bool = False,
) -> ComputationGraph:
    """Build (optionally pruned) user-centric computation graphs, batched.

    Parameters
    ----------
    ckg:
        The collaborative KG.
    users:
        User ids; one slot per user.
    depth:
        Number of message-passing layers ``L``.
    ppr_scores:
        ``(len(users), num_nodes)`` dense PPR score matrix or a
        :class:`~repro.ppr.SparsePPRScores` row subset (row per slot
        either way), as the solver wrote it.  Required when
        ``sampler == "ppr"`` and ``k`` is set.  Entries missing from the
        sparse backend score 0.0, which ranks them last — exactly the
        pruner's intent for nodes outside a user's top-M mass.
    k:
        Per-head-node edge budget (Algorithm 1 line 4).  ``None`` disables
        pruning — that is the ``KUCNet-w.o.-PPR`` variant.  A sequence of
        length ``depth`` gives each layer its own budget (``None`` entries
        disable pruning for that layer) — an AdaProp-style adaptive
        propagation schedule (Zhang et al., KDD 2023, the paper's [40]),
        typically tightening budgets at the deeper, wider layers.
    sampler:
        ``"ppr"`` ranks edges by the tail's PPR score; ``"random"`` keeps a
        uniform sample (the ``KUCNet-random`` ablation).
    rng:
        Randomness source for ``sampler == "random"``.
    degree_normalized:
        Rank by ``r_u[v] / max(outdeg(v), 1)`` instead of the raw score
        (``TrainConfig.ppr_degree_normalized``), divided at lookup in
        the scores' own dtype.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if sampler not in ("ppr", "random"):
        raise ValueError(f"unknown sampler {sampler!r}")
    if isinstance(k, (list, tuple)):
        if len(k) != depth:
            raise ValueError(f"k schedule has {len(k)} entries for depth {depth}")
        k_schedule = list(k)
    else:
        k_schedule = [k] * depth
    if any(budget is not None and budget < 1 for budget in k_schedule):
        raise ValueError("k must be >= 1 when given")
    prunes = any(budget is not None for budget in k_schedule)
    if prunes and sampler == "ppr" and ppr_scores is None:
        raise ValueError("PPR pruning requires ppr_scores")
    user_array = np.asarray(list(users), dtype=np.int64)
    if user_array.size == 0:
        raise ValueError("users must be non-empty")
    rng = rng or np.random.default_rng()

    with telemetry.span("graph.build"):
        graph = ComputationGraph(users=user_array, num_ckg_nodes=ckg.num_nodes)
        # Layer 0: one row per slot, holding the user's node.
        graph.slots.append(np.arange(user_array.size, dtype=np.int64))
        graph.nodes.append(user_array.copy())

        for layer_k in k_schedule:
            prev_slots = graph.slots[-1]
            prev_nodes = graph.nodes[-1]

            edge_ids = ckg.out_edge_ids(prev_nodes)
            counts = ckg.indptr[prev_nodes + 1] - ckg.indptr[prev_nodes]
            src_pos = np.repeat(np.arange(prev_nodes.size, dtype=np.int64), counts)
            edge_slots = prev_slots[src_pos]
            relations = ckg.relations[edge_ids]
            heads = ckg.heads[edge_ids]
            tails = ckg.tails[edge_ids]

            if layer_k is not None and src_pos.size:
                with telemetry.span("ppr.prune"):
                    expanded = src_pos.size
                    if sampler == "ppr":
                        scores = _edge_scores(ckg, ppr_scores, edge_slots,
                                              tails, degree_normalized)
                    else:
                        scores = rng.random(src_pos.size)
                    keep = _top_k_per_group(src_pos, scores, layer_k)
                    src_pos = src_pos[keep]
                    edge_slots = edge_slots[keep]
                    relations = relations[keep]
                    heads = heads[keep]
                    tails = tails[keep]
                telemetry.counter("ppr.edges_kept", keep.size)
                telemetry.counter("ppr.edges_pruned", expanded - keep.size)

            # Destination node table: unique (slot, tail) pairs, sorted by key
            # so rows_at can binary-search.
            keys = edge_slots * np.int64(ckg.num_nodes) + tails
            unique_keys, dst_pos = np.unique(keys, return_inverse=True)
            graph.slots.append((unique_keys // ckg.num_nodes).astype(np.int64))
            graph.nodes.append((unique_keys % ckg.num_nodes).astype(np.int64))
            graph.layers.append(LayerEdges(
                src_pos=src_pos, relations=relations, dst_pos=dst_pos,
                heads=heads, tails=tails,
            ))

    record_graph_instruments(graph)
    return graph


def record_graph_instruments(graph: ComputationGraph) -> None:
    """Emit per-layer node/edge size instruments for ``graph``.

    Every profiled run gets ``graph.nodes_per_layer.l{i}`` /
    ``graph.edges_per_layer.l{i}`` histograms (one observation per built
    graph), so pruning effectiveness is visible without calling
    :func:`repro.analysis.computation_graph_stats` explicitly.  No-op
    when telemetry is disabled.
    """
    if not telemetry.is_enabled():
        return
    telemetry.counter("graph.builds")
    telemetry.counter("graph.edges", graph.total_edges())
    for level in range(graph.depth + 1):
        telemetry.histogram(f"graph.nodes_per_layer.l{level}",
                            graph.layer_size(level))
    for level, layer in enumerate(graph.layers, start=1):
        telemetry.histogram(f"graph.edges_per_layer.l{level}",
                            layer.num_edges)


def _edge_scores(ckg: CollaborativeKG, ppr_scores: PPRScoreLike,
                 slots: np.ndarray, tails: np.ndarray,
                 degree_normalized: bool) -> np.ndarray:
    """The score the pruner ranks each ``(slot, tail)`` expansion by.

    Dense ndarrays index directly; every other backend (in-RAM CSR,
    mmap'd shards) serves the gather through their shared ``lookup``.
    Degree normalization divides by ``max(outdeg(tail), 1)`` in the
    scores' own dtype (float64 dense, float32 CSR), so the score stores
    stay as solved.
    """
    if isinstance(ppr_scores, np.ndarray):
        scores = ppr_scores[slots, tails]
    else:
        scores = ppr_scores.lookup(slots, tails)
    if degree_normalized:
        degrees = ckg.indptr[tails + 1] - ckg.indptr[tails]
        scores = scores / np.maximum(degrees, 1).astype(scores.dtype)
    return scores


def _top_k_per_group(groups: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the ``k`` highest-scored elements within each group.

    ``groups`` must be non-negative and non-decreasing (guaranteed by the
    CSR expansion order).  A group of at most ``k`` elements keeps all of
    them (Alg. 1, lines 3-5), so only larger groups are ranked.  Ties
    break by index.
    """
    sizes = np.bincount(groups)
    keep = (sizes <= k)[groups]
    ranked = np.flatnonzero(~keep)
    order = ranked[np.lexsort((-scores[ranked], groups[ranked]))]
    # Rank within group: position minus where the group starts in ``order``.
    large = sizes[sizes > k]
    rank = np.arange(order.size) - np.repeat(np.cumsum(large) - large, large)
    keep[order[rank < k]] = True
    return np.flatnonzero(keep)


# ----------------------------------------------------------------------
# Exact per-pair U-I subgraphs (Definition 2)
# ----------------------------------------------------------------------

def ui_subgraph_layers(ckg: CollaborativeKG, user: int, item: int,
                       depth: int) -> Tuple[List[Set[int]], List[np.ndarray]]:
    """Layerwise node/edge sets of the U-I subgraph ``G_{u,i|L}``.

    Returns ``(node_sets, edge_id_sets)`` where ``node_sets[l]`` is
    ``V^l_{u,i|L}`` (nodes on length-``L`` u→i paths at hop ``l``) and
    ``edge_id_sets[l]`` (for ``l >= 1``) contains CKG edge ids of
    ``E^l_{u,i|L}``.  Empty sets mean no length-``L`` path exists.
    """
    user_node = ckg.user_node(user)
    item_node = ckg.item_node(item)

    forward = _reachable_in_exactly(ckg, user_node, depth)
    backward = _reachable_in_exactly(ckg, item_node, depth)

    node_sets: List[Set[int]] = []
    for hop in range(depth + 1):
        node_sets.append(forward[hop] & backward[depth - hop])

    edge_sets: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for hop in range(1, depth + 1):
        sources = node_sets[hop - 1]
        targets = node_sets[hop]
        if not sources or not targets:
            edge_sets.append(np.empty(0, dtype=np.int64))
            node_sets[hop] = set()
            continue
        source_array = np.fromiter(sources, dtype=np.int64)
        edge_ids = ckg.out_edge_ids(source_array)
        tails = ckg.tails[edge_ids]
        target_mask = np.isin(tails, np.fromiter(targets, dtype=np.int64))
        edge_sets.append(edge_ids[target_mask])
    return node_sets, edge_sets


def _reachable_in_exactly(ckg: CollaborativeKG, start: int, depth: int) -> List[Set[int]]:
    """``result[l]`` = nodes reachable from ``start`` in exactly ``l`` hops.

    Because every relation has a reverse twin, reverse reachability from
    the item equals forward reachability, which is what Definition 2's
    "sum of shortest-path distances" requires on the symmetrized CKG.
    """
    layers: List[Set[int]] = [{int(start)}]
    frontier = np.asarray([start], dtype=np.int64)
    for _ in range(depth):
        if frontier.size:
            _, _, tails = ckg.out_edges(frontier)
            frontier = np.unique(tails)
        layers.append(set(frontier.tolist()))
    return layers


def build_ui_computation_graph(ckg: CollaborativeKG, user: int, item: int,
                               depth: int) -> ComputationGraph:
    """Per-pair computation graph ``C_{u,i|L}`` (Eq. 8), single slot.

    This is the expensive direct construction the user-centric graph
    replaces; it backs the ``KUCNet-UI`` baseline of Fig. 6.
    """
    node_sets, edge_sets = ui_subgraph_layers(ckg, user, item, depth)

    graph = ComputationGraph(users=np.asarray([user], dtype=np.int64),
                             num_ckg_nodes=ckg.num_nodes)
    graph.slots.append(np.zeros(1, dtype=np.int64))
    graph.nodes.append(np.asarray([ckg.user_node(user)], dtype=np.int64))

    for hop in range(1, depth + 1):
        prev_nodes = graph.nodes[-1]
        edge_ids = edge_sets[hop]
        heads = ckg.heads[edge_ids]
        relations = ckg.relations[edge_ids]
        tails = ckg.tails[edge_ids]

        prev_sorted = np.argsort(prev_nodes)
        src_pos = prev_sorted[np.searchsorted(prev_nodes[prev_sorted], heads)]

        unique_tails, dst_pos = np.unique(tails, return_inverse=True)
        graph.slots.append(np.zeros(unique_tails.size, dtype=np.int64))
        graph.nodes.append(unique_tails)
        graph.layers.append(LayerEdges(
            src_pos=src_pos, relations=relations, dst_pos=dst_pos,
            heads=heads, tails=tails,
        ))
    return graph

"""Graph and pipeline diagnostics.

Quantifies the structural properties the paper's efficiency analysis
turns on: degree distributions (why pruning matters), computation-graph
growth per layer (why the user-centric merge matters), and candidate
*reach* (the coverage ceiling of exact-L-hop propagation, which drives
the depth ablation of Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data import Dataset, Split
from ..graph import CollaborativeKG
from ..ppr import PPRScoreLike
from ..sampling import (ComputationGraph, build_user_centric_graph,
                        record_graph_instruments)


def degree_histogram(ckg: CollaborativeKG,
                     percentiles: Sequence[float] = (50, 90, 99)) -> Dict[str, float]:
    """Out-degree summary of the CKG (drives the choice of K)."""
    degrees = np.diff(ckg.indptr)
    summary = {
        "mean": float(degrees.mean()),
        "max": int(degrees.max()),
    }
    for percentile in percentiles:
        summary[f"p{int(percentile)}"] = float(np.percentile(degrees, percentile))
    return summary


@dataclass
class GraphStats:
    """Per-layer sizes of a computation graph."""

    nodes_per_layer: List[int]
    edges_per_layer: List[int]

    @property
    def total_edges(self) -> int:
        return sum(self.edges_per_layer)


def computation_graph_stats(graph: ComputationGraph) -> GraphStats:
    """Layerwise node/edge counts (the growth Eq. 12 reasons about).

    When telemetry is enabled the same counts are also emitted as
    ``graph.nodes_per_layer.l*`` / ``graph.edges_per_layer.l*``
    instruments, so explicit diagnostics and profiled runs share one
    metric namespace.
    """
    record_graph_instruments(graph)
    return GraphStats(
        nodes_per_layer=[graph.layer_size(level)
                         for level in range(graph.depth + 1)],
        edges_per_layer=[layer.num_edges for layer in graph.layers],
    )


def reach_statistics(ckg: CollaborativeKG, users: Sequence[int], depth: int,
                     k: Optional[int] = None,
                     ppr_scores: Optional[PPRScoreLike] = None) -> Dict[str, float]:
    """Fraction of items reachable at exactly ``depth`` hops per user.

    This is the recall ceiling of an L-layer KUCNet: unreached items
    score 0.  The Table VIII depth ablation is largely explained by how
    this number moves with L on each dataset.  ``ppr_scores`` accepts a
    dense ``(len(users), num_nodes)`` matrix or a
    :class:`~repro.ppr.SparsePPRScores` row subset, same as the pruner.
    """
    graph = build_user_centric_graph(
        ckg, list(users), depth=depth, k=k,
        ppr_scores=ppr_scores, sampler="ppr" if ppr_scores is not None else "random",
        rng=np.random.default_rng(0))
    item_set = set(ckg.item_nodes.tolist())
    last = graph.depth
    fractions = []
    for slot in range(graph.num_users):
        nodes = graph.nodes[last][graph.slots[last] == slot]
        reached_items = sum(1 for node in nodes.tolist() if node in item_set)
        fractions.append(reached_items / max(ckg.num_items, 1))
    return {
        "mean_item_reach": float(np.mean(fractions)),
        "min_item_reach": float(np.min(fractions)),
        "max_item_reach": float(np.max(fractions)),
    }


def dataset_report(dataset: Dataset, split: Optional[Split] = None) -> str:
    """Multi-line text report of a dataset's key structural properties."""
    stats = dataset.statistics()
    lines = [f"dataset: {dataset.name}"]
    for key, value in stats.items():
        lines.append(f"  {key}: {value}")
    density = dataset.ui_graph.density()
    lines.append(f"  interaction density: {density:.5f}")
    lines.append(f"  triplets per item: "
                 f"{dataset.kg.triplets_per_item(dataset.num_items):.2f}")

    ckg = dataset.build_ckg(split.train if split is not None else None)
    degrees = degree_histogram(ckg)
    lines.append(f"  CKG: {ckg.num_nodes} nodes, {ckg.num_edges} edges, "
                 f"{ckg.num_relations} relations (with reverses)")
    lines.append("  out-degree: " + ", ".join(
        f"{key}={value:g}" for key, value in degrees.items()))
    return "\n".join(lines)

"""Subgraph-based KG link prediction (the RED-GNN lineage, §II-C).

Scores ``(h, r, ?)`` queries by propagating a relative representation
from the head entity through the KG for ``L`` layers — the same
machinery KUCNet uses for recommendation, applied to a pure KG.  No
entity embeddings, so the predictor is inductive: it ranks entities it
never saw in training triplets, which is the property KUCNet inherits
for new items/users.

The query relation conditions the *readout*: ``ŷ = w_r^T h_{h:t}``,
a per-relation scoring vector over the propagated representation (a
simplification of RED-GNN's query-conditioned attention that keeps the
per-query cost at one propagation).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..autodiff import Adam, Parameter, Tensor, gather_rows, log_sigmoid
from ..autodiff import init as ad_init
from ..core.layers import AttentionMessagePassing
from ..core.model import KUCNet, KUCNetConfig
from ..engine import Engine, EpochStats, History, TelemetryHook
from ..graph import CollaborativeKG, KnowledgeGraph
from ..sampling import build_user_centric_graph
from .trainer import RankingResult


def relational_graph_from_kg(kg: KnowledgeGraph) -> CollaborativeKG:
    """Wrap a plain KG as a :class:`CollaborativeKG` with zero users.

    Entities keep their ids (no user offset), every relation gets its
    reverse twin, and the CSR machinery of the subgraph builders applies
    unchanged.
    """
    heads = np.concatenate([kg.heads, kg.tails])
    relations = np.concatenate([kg.relations, kg.relations + kg.num_relations])
    tails = np.concatenate([kg.tails, kg.heads])
    return CollaborativeKG(
        num_users=0, num_items=0, num_entities=kg.num_entities,
        num_base_relations=kg.num_relations,
        item_nodes=np.empty(0, dtype=np.int64),
        heads=heads, relations=relations, tails=tails,
        num_nodes=kg.num_entities)


@dataclasses.dataclass
class SubgraphLinkPredConfig:
    """Hyper-parameters for the subgraph link predictor."""

    dim: int = 32
    attn_dim: int = 5
    depth: int = 3
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 5e-3
    #: L2-style decay on every parameter, matching ``LinkPredConfig``
    #: (this loop used to construct Adam without any decay at all)
    weight_decay: float = 1e-6
    #: uniform per-node edge cap bounding the propagation graphs
    edge_cap: int = 30
    num_negatives: int = 2
    seed: int = 0


class SubgraphLinkPredictor:
    """Inductive KG link prediction with relative representations."""

    def __init__(self, config: Optional[SubgraphLinkPredConfig] = None):
        self.config = config or SubgraphLinkPredConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.graph: Optional[CollaborativeKG] = None
        self.layers: List[AttentionMessagePassing] = []
        self.readout: Optional[Parameter] = None
        self.optimizer: Optional[Adam] = None
        self._known: Dict[Tuple[int, int], Set[int]] = {}
        self.history: List[EpochStats] = []

    @property
    def losses(self) -> List[float]:
        """Per-epoch mean losses (derived from :attr:`history`)."""
        return [stats.loss for stats in self.history]

    # ------------------------------------------------------------------
    def fit(self, kg: KnowledgeGraph,
            triplets: Optional[np.ndarray] = None) -> "SubgraphLinkPredictor":
        config = self.config
        if triplets is None:
            triplets = np.column_stack([kg.heads, kg.relations, kg.tails])
        triplets = np.asarray(triplets, dtype=np.int64)
        if triplets.size == 0:
            raise ValueError("no training triplets")
        # Build the propagation graph from the *training* triplets only.
        train_kg = KnowledgeGraph(kg.num_entities, kg.num_relations, triplets)
        self.graph = relational_graph_from_kg(train_kg)
        self._num_query_relations = kg.num_relations

        model_rng = np.random.default_rng(config.seed)
        self.layers = [
            AttentionMessagePassing(dim=config.dim, attn_dim=config.attn_dim,
                                    num_relations=self.graph.num_relations,
                                    rng=model_rng)
            for _ in range(config.depth)
        ]
        self.readout = Parameter(
            ad_init.xavier_uniform((kg.num_relations, config.dim),
                                   rng=model_rng),
            name="relation_readout")

        self._known = {}
        for head, relation, tail in triplets:
            self._known.setdefault((int(head), int(relation)), set()).add(int(tail))

        params = [p for layer in self.layers for p in layer.parameters()]
        params.append(self.readout)
        self.optimizer = Adam(params, lr=config.learning_rate,
                              weight_decay=config.weight_decay)

        num = triplets.shape[0]

        def batches(epoch: int):
            order = self.rng.permutation(num)
            return [triplets[order[start:start + config.batch_size]]
                    for start in range(0, num, config.batch_size)]

        history = History()
        engine = Engine(self.optimizer, hooks=[TelemetryHook(), history])
        self.history = history.stats
        engine.fit(self._train_step, batches, config.epochs)
        return self

    def _train_step(self, batch: np.ndarray) -> Tensor:
        """Loss for one triplet batch (the engine owns the optimizer cycle)."""
        config = self.config
        propagation = self._propagate(batch[:, 0])
        slots = np.arange(batch.shape[0], dtype=np.int64)

        pos_scores = self._pair_scores(propagation, slots, batch[:, 1],
                                       batch[:, 2])
        total = None
        for _ in range(config.num_negatives):
            corrupted = self.rng.integers(0, self.graph.num_nodes,
                                          size=batch.shape[0])
            neg_scores = self._pair_scores(propagation, slots, batch[:, 1],
                                           corrupted)
            term = -log_sigmoid(pos_scores - neg_scores).mean()
            total = term if total is None else total + term
        return total * (1.0 / config.num_negatives)

    # ------------------------------------------------------------------
    def _propagate(self, heads: np.ndarray):
        graph = build_user_centric_graph(
            self.graph, list(heads), depth=self.config.depth,
            k=self.config.edge_cap, sampler="random", rng=self.rng)
        hidden = [Tensor(np.zeros((graph.layer_size(0), self.config.dim)))]
        for level, layer in enumerate(self.layers, start=1):
            state, _ = layer(hidden[-1], graph.layers[level - 1],
                             graph.layer_size(level))
            hidden.append(state)
        return graph, hidden[-1]

    def _pair_scores(self, propagation, slots: np.ndarray,
                     relations: np.ndarray, tails: np.ndarray) -> Tensor:
        graph, final_hidden = propagation
        rows = graph.rows_for_pairs(graph.depth, slots, tails)
        found = rows >= 0
        safe = np.where(found, rows, 0)
        gathered = gather_rows(final_hidden, safe)
        readout = gather_rows(self.readout, relations)
        scores = (gathered * readout).sum(axis=1)
        return scores * Tensor(found.astype(np.float64))

    # ------------------------------------------------------------------
    def rank_tail(self, head: int, relation: int, tail: int) -> int:
        """Filtered rank of the true tail for a ``(h, r, ?)`` query."""
        if self.graph is None:
            raise RuntimeError("fit() must be called first")
        propagation = self._propagate(np.asarray([head]))
        graph, final_hidden = propagation
        scores = np.zeros(self.graph.num_nodes)
        values = final_hidden.data @ self.readout.data[relation]
        last = graph.depth
        scores[graph.nodes[last]] = values
        known = self._known.get((int(head), int(relation)), set())
        for other in known:
            if other != tail:
                scores[other] = -np.inf
        target = scores[tail]
        return int((scores > target).sum()) + 1

    def evaluate(self, test_triplets: np.ndarray) -> RankingResult:
        """Filtered MRR / Hits@K (same protocol as the embedding models)."""
        test_triplets = np.asarray(test_triplets, dtype=np.int64)
        if test_triplets.size == 0:
            raise ValueError("no test triplets")
        ranks = np.asarray([
            self.rank_tail(int(h), int(r), int(t))
            for h, r, t in test_triplets
        ], dtype=np.float64)
        return RankingResult(
            mrr=float((1.0 / ranks).mean()),
            hits_at_1=float((ranks <= 1).mean()),
            hits_at_3=float((ranks <= 3).mean()),
            hits_at_10=float((ranks <= 10).mean()),
            num_triplets=int(ranks.size),
        )

"""Tests for the GNN link predictors: CompGCN and NBFNet."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients_match
from repro.graph import KnowledgeGraph
from repro.linkpred import (CompGCN, GNNLinkPredConfig, GNNLinkPredictor,
                            NBFNet, split_triplets)

from .reference_ops import reference_compgcn_encode


@pytest.fixture(scope="module")
def kg():
    triplets = []
    for entity in range(30):
        triplets.append((entity, 0, (entity + 2) % 30))
        triplets.append((entity, 1, 30 + entity % 2))
    return KnowledgeGraph(40, 2, triplets)


class TestCompGCN:
    def test_encode_shapes(self, kg):
        model = CompGCN(kg, dim=8, num_layers=2,
                        rng=np.random.default_rng(0))
        entities, relations = model.encode()
        assert entities.shape == (kg.num_entities, 8)
        assert relations.shape == (2 * kg.num_relations, 8)

    def test_score_shape_and_gradients(self, kg):
        model = CompGCN(kg, dim=8, rng=np.random.default_rng(0))
        scores = model.score(kg.heads[:4], kg.relations[:4], kg.tails[:4])
        assert scores.shape == (4,)
        (-scores.mean()).backward()
        assert model.entity_embedding.weight.grad is not None
        assert model.relation_embedding.weight.grad is not None

    def test_transductive_parameters_scale_with_entities(self, kg):
        model = CompGCN(kg, dim=8, rng=np.random.default_rng(0))
        shapes = [p.shape for p in model.parameters()]
        assert (kg.num_entities, 8) in shapes  # has an entity table

    def test_encode_matches_per_edge_composition(self, kg):
        """The fused encoder transforms each node's pooled messages, not
        every edge message; by linearity the two agree up to rounding."""
        model = CompGCN(kg, dim=8, num_layers=2,
                        rng=np.random.default_rng(0))
        fused = model.encode()
        reference = reference_compgcn_encode(model)
        for got, want in zip(fused, reference):
            np.testing.assert_allclose(got.data, want.data,
                                       rtol=1e-10, atol=0.0)

        rng = np.random.default_rng(1)
        entity_weights = Tensor(rng.normal(size=fused[0].shape))
        relation_weights = Tensor(rng.normal(size=fused[1].shape))

        def loss(encode):
            def fn():
                entities, relations = encode()
                return ((entities * entity_weights).sum()
                        + (relations * relation_weights).sum())
            return fn

        check_gradients_match(loss(model.encode),
                              loss(lambda: reference_compgcn_encode(model)),
                              model.parameters(), atol=0.0, rtol=1e-10)


class TestNBFNet:
    def test_pair_states_shape(self, kg):
        model = NBFNet(kg, dim=8, num_layers=2,
                       rng=np.random.default_rng(0))
        state = model.pair_states(np.array([0, 5]), np.array([0, 1]))
        assert state.shape == (2 * kg.num_entities, 8)

    def test_boundary_condition(self, kg):
        """Before propagation contributes, only the head row is non-zero;
        after L layers unreachable entities stay at tanh(0 + boundary)=0."""
        model = NBFNet(kg, dim=8, num_layers=1,
                       rng=np.random.default_rng(0))
        state = model.pair_states(np.array([0]), np.array([0]))
        values = np.abs(state.data).sum(axis=1)
        # entities 32..39 are isolated: never reached, no boundary
        assert np.allclose(values[32:40], 0.0)

    def test_inductive_no_entity_table(self, kg):
        model = NBFNet(kg, dim=8, rng=np.random.default_rng(0))
        for param in model.parameters():
            assert kg.num_entities not in param.shape

    def test_score_all_tails_matches_score(self, kg):
        model = NBFNet(kg, dim=8, rng=np.random.default_rng(0))
        all_scores = model.score_all_tails(0, 0)
        some = model.score(np.array([0, 0]), np.array([0, 0]),
                           np.array([2, 7])).data
        assert np.allclose(all_scores[[2, 7]], some)


class TestGNNLinkPredictor:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            GNNLinkPredictor(GNNLinkPredConfig(model="gat"))

    @pytest.mark.parametrize("model", ["compgcn", "nbfnet"])
    def test_fit_evaluate_beats_random(self, kg, model):
        train, test = split_triplets(kg, test_fraction=0.15, seed=0)
        predictor = GNNLinkPredictor(
            GNNLinkPredConfig(model=model, dim=16, epochs=8, seed=0))
        predictor.fit(kg, train)
        result = predictor.evaluate(test)
        assert result.mrr > 0.12  # random is ~0.11 over 40 entities
        assert predictor.losses[-1] <= predictor.losses[0]

    def test_nbfnet_beats_compgcn_inductively(self, kg):
        """The subgraph-lineage claim (§II-C): the inductive DP method
        outranks the transductive GNN on this sparse KG."""
        train, test = split_triplets(kg, test_fraction=0.15, seed=0)
        results = {}
        for model in ("compgcn", "nbfnet"):
            predictor = GNNLinkPredictor(
                GNNLinkPredConfig(model=model, dim=16, epochs=10, seed=0))
            predictor.fit(kg, train)
            results[model] = predictor.evaluate(test).mrr
        assert results["nbfnet"] > results["compgcn"]

    def test_rank_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GNNLinkPredictor().rank_tail(0, 0, 1)


class TestWeightDecayThreading:
    """Regression: the GNN loops used to build Adam with no decay at all."""

    def test_gnn_default_matches_linkpred_config(self, kg):
        from repro.linkpred import LinkPredConfig

        assert GNNLinkPredConfig().weight_decay == LinkPredConfig().weight_decay

    def test_gnn_optimizer_sees_configured_value(self, kg):
        config = GNNLinkPredConfig(model="compgcn", dim=4, num_layers=1,
                                   epochs=1, batch_size=16,
                                   weight_decay=3e-4, seed=0)
        predictor = GNNLinkPredictor(config).fit(kg)
        assert predictor.optimizer.weight_decay == 3e-4

    def test_gnn_optimizer_sees_default(self, kg):
        config = GNNLinkPredConfig(model="compgcn", dim=4, num_layers=1,
                                   epochs=1, batch_size=16, seed=0)
        predictor = GNNLinkPredictor(config).fit(kg)
        assert predictor.optimizer.weight_decay == 1e-6

    def test_subgraph_optimizer_sees_configured_value(self, kg):
        from repro.linkpred import (SubgraphLinkPredConfig,
                                    SubgraphLinkPredictor)

        config = SubgraphLinkPredConfig(dim=4, depth=2, epochs=1,
                                        batch_size=16, weight_decay=2e-5,
                                        seed=0)
        predictor = SubgraphLinkPredictor(config).fit(kg)
        assert predictor.optimizer.weight_decay == 2e-5
        assert SubgraphLinkPredConfig().weight_decay == 1e-6


class TestEngineHistory:
    def test_gnn_history_is_epoch_stats(self, kg):
        from repro.engine import EpochStats

        config = GNNLinkPredConfig(model="compgcn", dim=4, num_layers=1,
                                   epochs=2, batch_size=16, seed=0)
        predictor = GNNLinkPredictor(config).fit(kg)
        assert len(predictor.history) == 2
        assert all(isinstance(s, EpochStats) for s in predictor.history)
        assert predictor.losses == [s.loss for s in predictor.history]

    def test_gnn_emits_train_epoch_spans(self, kg):
        from repro import telemetry

        config = GNNLinkPredConfig(model="compgcn", dim=4, num_layers=1,
                                   epochs=2, batch_size=16, seed=0)
        with telemetry.enabled():
            telemetry.reset()
            GNNLinkPredictor(config).fit(kg)
            snapshot = telemetry.get_registry().snapshot()
        assert snapshot["spans"]["train.epoch"]["count"] == 2
        assert snapshot["spans"]["train.batch"]["count"] > 0

"""Tests for the online serving layer (repro/serve/).

A stub scorer over a hand-built two-component graph exercises the
service mechanics precisely (caching, invalidation scope, exclusion
growth); one end-to-end fixture built from a really-trained recommender
checks the full path, and ``RecommendationServer`` is driven over real
HTTP sockets.
"""

import json
import math
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import telemetry
from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
from repro.data import lastfm_like, traditional_split
from repro.graph import CollaborativeKG, KnowledgeGraph, UserItemGraph
from repro.ppr import forward_push_batch
from repro.runstore import exporter as exporter_module
from repro.serve import (RecommendationServer, RecommendationService,
                         ServeConfig)


class _StubModel:
    """Deterministic scorer: item id 0 best, then 1, 2, ... for everyone."""

    def eval(self):
        pass

    def propagate(self, graph):
        return graph

    def score_all_items(self, propagation, item_nodes):
        row = np.arange(len(item_nodes), 0, -1, dtype=np.float64)
        return np.tile(row, (64, 1))


def _stub_service(**config_kwargs):
    """Service over two disconnected components: users {0,1} with items
    {0,1}, users {2,3} with items {2,3}."""
    ui = UserItemGraph(4, 4, [(0, 0), (1, 0), (1, 1), (2, 2), (3, 2),
                              (3, 3)])
    kg = KnowledgeGraph(6, 2, [(0, 0, 4), (1, 0, 4), (2, 1, 5), (3, 1, 5)])
    ckg = CollaborativeKG.build(ui, kg)
    scores = forward_push_batch(ckg, range(4), epsilon=1e-5,
                                keep_residuals=True)
    positives = {0: {0}, 1: {0, 1}, 2: {2}, 3: {2, 3}}
    config = ServeConfig(**{"top_k": 3, **config_kwargs})
    return RecommendationService(
        _StubModel(), KUCNetConfig(dim=4, depth=2, seed=0),
        TrainConfig(seed=0, k=4, ppr_method="push"),
        ckg, scores, positives, config=config)


@pytest.fixture(scope="module")
def trained():
    split = traditional_split(lastfm_like(seed=0, scale=0.15), seed=0)
    recommender = KUCNetRecommender(
        KUCNetConfig(dim=8, depth=2, seed=0),
        TrainConfig(epochs=1, k=10, seed=0, batch_users=16,
                    ppr_method="push"))
    recommender.fit(split)
    return recommender, split


class TestService:
    def test_recommend_is_deterministic_and_cached(self):
        service = _stub_service()
        first = service.recommend([0, 2], k=2)
        assert all(len(ranking) == 2 for ranking in first)
        assert service.cached_users() == {0, 2}
        second = service.recommend([0, 2], k=2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_known_positives_never_recommended(self):
        service = _stub_service()
        ranking = service.recommend([1])[0]
        # User 1's positives {0, 1} are excluded even though the stub
        # scores item 0 highest for everyone.
        assert not {0, 1} & set(ranking.tolist())

    def test_k_slices_the_cached_ranking(self):
        service = _stub_service()
        full = service.recommend([2])[0]
        short = service.recommend([2], k=1)[0]
        np.testing.assert_array_equal(short, full[:1])

    def test_duplicate_users_served_from_one_scoring(self):
        service = _stub_service()
        rankings = service.recommend([0, 0, 0])
        assert len(rankings) == 3
        for ranking in rankings[1:]:
            np.testing.assert_array_equal(ranking, rankings[0])

    def test_validation(self):
        service = _stub_service()
        with pytest.raises(ValueError):
            service.recommend([])
        with pytest.raises(ValueError, match="out of range"):
            service.recommend([99])
        with pytest.raises(ValueError, match="k must be"):
            service.recommend([0], k=service.config.top_k + 1)
        with pytest.raises(ValueError, match="k must be"):
            service.recommend([0], k=0)

    @pytest.mark.parametrize("config, message", [
        ({"cache_entries": -1}, "cache_entries"),
        ({"chunk_users": 0}, "chunk_users"),
    ])
    def test_config_that_fails_every_request_is_rejected(self, config,
                                                         message):
        # accepted, either would fail every cache miss (cache_entries)
        # or every write (chunk_users) once serving
        with pytest.raises(ValueError, match=message):
            _stub_service(**config)

    def test_zero_cache_entries_still_answers(self):
        service = _stub_service(cache_entries=0)
        rankings = service.recommend([0, 1])
        assert len(rankings) == 2
        assert service.cached_users() == set()

    def test_requires_residuals(self):
        ui = UserItemGraph(2, 2, [(0, 0), (1, 1)])
        kg = KnowledgeGraph(3, 1, [(0, 0, 2)])
        ckg = CollaborativeKG.build(ui, kg)
        truncated = forward_push_batch(ckg, range(2), epsilon=1e-4)
        with pytest.raises(ValueError, match="keep_residuals"):
            RecommendationService(_StubModel(), KUCNetConfig(dim=4),
                                  TrainConfig(), ckg, truncated, {})

    def test_lru_cache_is_bounded(self):
        service = _stub_service(cache_entries=2)
        service.recommend([0])
        service.recommend([1])
        service.recommend([2])  # evicts user 0, the least recent
        assert service.cached_users() == {1, 2}

    def test_request_larger_than_cache_is_answered(self):
        service = _stub_service(cache_entries=2)
        rankings = service.recommend([0, 1, 2, 3, 0])
        assert len(rankings) == 5
        np.testing.assert_array_equal(rankings[0], rankings[4])
        assert service.cached_users() == {2, 3}

    def test_update_evicts_only_affected_component(self):
        service = _stub_service()
        service.recommend([0, 1, 2, 3])
        summary = service.add_interactions([(0, 1)])
        assert summary["added"] == 1
        assert summary["push_ops"] > 0
        # Users 2 and 3 live in a disconnected component: their score
        # rows cannot change, so their cached rankings survive.
        assert 0 not in service.cached_users()
        assert {2, 3} <= service.cached_users()
        assert summary["cache_invalidated"] <= 2

    def test_update_grows_exclusions_and_graph(self):
        service = _stub_service()
        edges_before = service.ckg.num_edges
        assert 1 in set(service.recommend([0])[0].tolist())
        service.add_interactions([(0, 1)])
        assert service.ckg.num_edges == edges_before + 2
        assert service.ckg.has_interaction(0, 1)
        assert 1 not in set(service.recommend([0])[0].tolist())
        assert service.stats()["serve_interactions_added"] == 1

    def test_update_skips_known_and_duplicate_pairs(self):
        service = _stub_service()
        summary = service.add_interactions([(0, 0), (0, 1), (0, 1)])
        assert summary["added"] == 1
        assert summary["skipped"] == 2
        with pytest.raises(ValueError):
            service.add_interactions([])
        with pytest.raises(ValueError, match="out of range"):
            service.add_interactions([(99, 0)])

    def test_counters_recorded(self):
        service = _stub_service()
        telemetry.reset()
        telemetry.enable()
        try:
            service.recommend([0, 2])
            service.recommend([0, 2])
            service.add_interactions([(0, 1)])
            counters = telemetry.get_registry().snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert counters["serve.requests"]["total"] == 4
        assert counters["serve.cache_misses"]["total"] == 2
        assert counters["serve.cache_hits"]["total"] == 2
        assert counters["serve.interactions"]["total"] == 1
        assert counters["ppr.incremental_pushes"]["total"] > 0

    def test_reset_cache(self):
        service = _stub_service()
        service.recommend([0, 1])
        service.reset_cache()
        assert service.cached_users() == set()


class TestFromRecommender:
    def test_end_to_end_recommend_and_update(self, trained):
        recommender, split = trained
        service = RecommendationService.from_recommender(
            recommender, split, ServeConfig(top_k=10))
        users = [0, 1, 2]
        rankings = service.recommend(users)
        for user, ranking in zip(users, rankings):
            assert len(ranking) == 10
            positives = set(split.train.positives(user))
            assert not positives & set(ranking.tolist())

        target = int(rankings[0][0])
        summary = service.add_interactions([(0, target)])
        assert summary["added"] == 1
        assert target not in set(service.recommend([0])[0].tolist())

    def test_request_naming_every_user_matches_one_user_requests(
            self, trained):
        recommender, split = trained
        service = RecommendationService.from_recommender(
            recommender, split, ServeConfig(top_k=10, cache_entries=0))
        users = list(range(recommender.ckg.num_users))
        together = service.recommend(users)
        alone = [service.recommend([user])[0] for user in users]
        assert all(np.array_equal(many, one)
                   for many, one in zip(together, alone))

    def test_misses_scored_in_bounded_passes(self, trained, monkeypatch):
        recommender, split = trained
        chunk_users = 8
        service = RecommendationService.from_recommender(
            recommender, split,
            ServeConfig(top_k=10, chunk_users=chunk_users))
        users = list(range(recommender.ckg.num_users))
        assert len(users) > 2 * chunk_users
        sizes = []
        propagate = service.model.propagate

        def counting(graph, **kwargs):
            sizes.append(graph.num_users)
            return propagate(graph, **kwargs)

        monkeypatch.setattr(service.model, "propagate", counting)
        service.recommend(users)
        assert len(sizes) == math.ceil(len(users) / chunk_users)
        assert max(sizes) <= chunk_users
        assert sum(sizes) == len(users)

    def test_requires_prepared_recommender(self, trained):
        _, split = trained
        unprepared = KUCNetRecommender(KUCNetConfig(dim=8, seed=0),
                                       TrainConfig(seed=0))
        with pytest.raises(ValueError, match="prepared"):
            RecommendationService.from_recommender(unprepared, split)


def _post(url, body):
    """POST ``body``: a JSON-serializable value, or raw JSON text."""
    text = body if isinstance(body, str) else json.dumps(body)
    request = urllib.request.Request(
        url, data=text.encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=5) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


class TestHTTP:
    @pytest.fixture
    def server(self):
        instance = RecommendationServer(_stub_service(), port=0,
                                        snapshot_interval=0.0)
        port = instance.start()
        yield instance, f"http://127.0.0.1:{port}"
        instance.stop()

    def test_recommend_endpoint(self, server):
        _, url = server
        status, body = _post(f"{url}/recommend", {"users": [2], "k": 2})
        assert status == 200
        assert body["k"] == 2
        assert len(body["results"]["2"]) == 2
        assert 2 not in body["results"]["2"]  # training positive

    def test_interactions_endpoint_then_fresh_ranking(self, server):
        instance, url = server
        _, before = _post(f"{url}/recommend", {"users": [0]})
        target = before["results"]["0"][0]
        status, summary = _post(f"{url}/interactions",
                                {"pairs": [[0, target]]})
        assert status == 200
        assert summary["added"] == 1
        assert summary["push_ops"] > 0
        _, after = _post(f"{url}/recommend", {"users": [0]})
        assert target not in after["results"]["0"]
        assert instance.service.interactions_added == 1

    def test_malformed_requests_are_400_json(self, server):
        _, url = server
        for path, body in [("/recommend", {"users": []}),
                           ("/recommend", {"users": [0], "k": 99}),
                           ("/interactions", {"pairs": [[1, 2, 3]]}),
                           ("/interactions", {})]:
            with pytest.raises(urllib.error.HTTPError) as caught:
                _post(f"{url}{path}", body)
            assert caught.value.code == 400
            error = json.loads(caught.value.read().decode("utf-8"))
            assert "error" in error

    @pytest.mark.parametrize("path, text", [
        ("/recommend", '{"users": [Infinity]}'),
        ("/recommend", '{"users": [1e400]}'),
        ("/recommend", '{"users": [0], "k": Infinity}'),
        ("/interactions", '{"pairs": [[0, Infinity]]}'),
        ("/recommend", '{"users": [0.9]}'),
        ("/recommend", '{"users": [true]}'),
        ("/recommend", '{"users": [0], "k": 1.5}'),
        ("/interactions", '{"pairs": [[0.5, 3.7]]}'),
    ])
    def test_ids_and_k_must_be_json_integers(self, server, path, text):
        """Floats, infinities and booleans are refused, never truncated:
        no answer for a rounded user, no write of a rounded pair."""
        instance, url = server
        edges = instance.service.ckg.num_edges
        with pytest.raises(urllib.error.HTTPError) as caught:
            _post(f"{url}{path}", text)
        assert caught.value.code == 400
        error = json.loads(caught.value.read().decode("utf-8"))
        assert "integer" in error["error"]
        assert instance.service.ckg.num_edges == edges
        assert instance.service.interactions_added == 0

    @pytest.mark.parametrize("path", ["/recommend", "/interactions"])
    def test_deeply_nested_json_is_400(self, server, path):
        """JSON nested past the decoder's recursion limit, well under the
        body cap, is answered 400 like any malformed body."""
        instance, url = server
        body = "[" * 200_000
        assert len(body) < exporter_module.MAX_BODY_BYTES
        with pytest.raises(urllib.error.HTTPError) as caught:
            _post(f"{url}{path}", body)
        assert caught.value.code == 400
        error = json.loads(caught.value.read().decode("utf-8"))
        assert "error" in error
        assert instance.service.interactions_added == 0
        # the server still answers
        status, _ = _post(f"{url}/recommend", {"users": [0]})
        assert status == 200

    def test_unknown_path_is_404(self, server):
        _, url = server
        with pytest.raises(urllib.error.HTTPError) as caught:
            _post(f"{url}/nope", {})
        assert caught.value.code == 404

    def test_healthz_includes_service_stats(self, server):
        _, url = server
        with urllib.request.urlopen(f"{url}/healthz", timeout=5) as reply:
            health = json.loads(reply.read().decode("utf-8"))
        assert health["status"] == "ok"
        assert health["serve_users"] == 4
        assert health["serve_cache_entries"] == 0

    def test_metrics_scrape_stays_valid(self, server):
        from repro.runstore import validate_prometheus_text
        _, url = server
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as reply:
            assert reply.status == 200
            validate_prometheus_text(reply.read().decode("utf-8"))

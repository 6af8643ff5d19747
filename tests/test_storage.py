"""The out-of-core storage tier (repro/storage/).

The load-bearing contract (ISSUE 10, docs/storage.md): every read off
the mmap'd shard store — ``lookup`` / ``select`` / ``for_user`` /
``dense_columns`` / top-k pruning — is **bitwise-identical** to the
in-RAM ``SparsePPRScores`` over the same solve, under any shard
chunking and any LRU bound.  On top of that: LRU eviction order and
telemetry, targeted shard invalidation during incremental maintenance,
by-path pickling (the spawn transport), the ``SparsePPRScores``
save/load round-trip (residuals included), RAM-vs-mmap trainer/serve
equivalence, and the streamed generator's memory bound.
"""

import os
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
from repro.data import lastfm_like, traditional_split
from repro.graph import (CollaborativeKG, KnowledgeGraph,
                         MmapCollaborativeKG, UserItemGraph, load_npy)
from repro.ppr import (SparsePPRScores, forward_push_batch,
                       forward_push_sharded, incremental_push,
                       personalized_pagerank_batch,
                       personalized_pagerank_mmap)
from repro.storage import (MANIFEST_NAME, STORE_ENV_VAR, ShardedPPRScores,
                           ShardWriter, resolve_store)


@pytest.fixture(scope="module")
def split():
    return traditional_split(lastfm_like(seed=0, scale=0.4), seed=0)


@pytest.fixture(scope="module")
def ckg(split):
    dataset = lastfm_like(seed=0, scale=0.4)
    return dataset.build_ckg(split.train)


def _pair(ckg, tmp_path, *, chunk_users=16, keep_residuals=False,
          max_open=None, name="scores"):
    """The same solve through both backends: (ram, sharded)."""
    users = range(ckg.num_users)
    ram = forward_push_batch(ckg, users, chunk_users=chunk_users,
                             keep_residuals=keep_residuals)
    sharded = forward_push_sharded(
        ckg, users, str(tmp_path / name), chunk_users=chunk_users,
        keep_residuals=keep_residuals, max_open=max_open)
    return ram, sharded


def _counters():
    return {name: record["total"] for name, record
            in telemetry.get_registry().snapshot()["counters"].items()}


# ----------------------------------------------------------------------
# Bitwise read parity
# ----------------------------------------------------------------------

class TestBitwiseParity:
    def test_store_interface(self, ckg, tmp_path):
        ram, sharded = _pair(ckg, tmp_path)
        assert sharded.num_rows == ram.num_rows
        assert sharded.nnz == ram.nnz
        assert sharded.has_residuals == ram.has_residuals
        assert sharded.residual == ram.residual

    def test_toarray_bitwise(self, ckg, tmp_path):
        ram, sharded = _pair(ckg, tmp_path)
        assert np.array_equal(ram.toarray(), sharded.toarray())

    def test_select_bitwise(self, ckg, tmp_path):
        ram, sharded = _pair(ckg, tmp_path)
        users = [5, 0, 17, 5, ckg.num_users - 1]
        a, b = ram.select(users), sharded.select(users)
        for attribute in ("users", "indptr", "node_ids", "values"):
            assert np.array_equal(getattr(a, attribute),
                                  getattr(b, attribute))
        assert a.residual == b.residual

    def test_lookup_and_columns_bitwise(self, ckg, tmp_path):
        ram, sharded = _pair(ckg, tmp_path)
        rng = np.random.default_rng(0)
        slots = rng.integers(0, ram.num_rows, size=500)
        nodes = rng.integers(0, ckg.num_nodes, size=500)
        assert np.array_equal(ram.lookup(slots, nodes),
                              sharded.lookup(slots, nodes))
        probe = rng.integers(0, ckg.num_nodes, size=7)
        assert np.array_equal(ram.dense_columns(probe),
                              sharded.dense_columns(probe))

    def test_for_user_and_residual_bitwise(self, ckg, tmp_path):
        ram, sharded = _pair(ckg, tmp_path, keep_residuals=True)
        for user in (0, 3, ckg.num_users - 1):
            assert np.array_equal(ram.for_user(user), sharded.for_user(user))
            assert np.array_equal(ram.residual_for_user(user),
                                  sharded.residual_for_user(user))

    def test_lookup_error_contract_matches_ram(self, ckg, tmp_path):
        ram, sharded = _pair(ckg, tmp_path)
        for store in (ram, sharded):
            with pytest.raises(IndexError, match="out of range for"):
                store.lookup(np.asarray([store.num_rows]), np.asarray([0]))
            with pytest.raises(IndexError, match="num_nodes="):
                store.lookup(np.asarray([0]), np.asarray([ckg.num_nodes]))
            with pytest.raises(KeyError,
                               match="no PPR scores computed for user"):
                store.select([ckg.num_users + 7])

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_property_lookup_select_topk(self, data):
        """Random tiny graphs, chunkings and queries: shard reads and the
        top-k pruning order they induce match the RAM backend exactly."""
        import tempfile

        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        num_users = int(rng.integers(3, 9))
        num_items = int(rng.integers(4, 9))
        interactions = sorted({(u, int(rng.integers(num_items)))
                               for u in range(num_users)
                               for _ in range(int(rng.integers(1, 4)))})
        ui = UserItemGraph(num_users, num_items, interactions)
        kg = KnowledgeGraph(num_items + 3, 1,
                            sorted({(int(rng.integers(num_items)), 0,
                                     num_items + int(rng.integers(3)))
                                    for _ in range(6)}))
        graph = CollaborativeKG.build(ui, kg)
        chunk = data.draw(st.integers(1, num_users + 1))
        max_open = data.draw(st.integers(1, 4))
        with tempfile.TemporaryDirectory() as tmp:
            ram = forward_push_batch(graph, range(num_users),
                                     chunk_users=chunk)
            sharded = forward_push_sharded(
                graph, range(num_users), os.path.join(tmp, "s"),
                chunk_users=chunk, max_open=max_open)
            slots = rng.integers(0, num_users, size=64)
            nodes = rng.integers(0, graph.num_nodes, size=64)
            assert np.array_equal(ram.lookup(slots, nodes),
                                  sharded.lookup(slots, nodes))
            assert np.array_equal(ram.toarray(), sharded.toarray())
            # top-k per row off each backend ranks identically
            k = int(rng.integers(1, 4))
            dense_a, dense_b = ram.toarray(), sharded.toarray()
            top_a = np.argsort(-dense_a, axis=1, kind="stable")[:, :k]
            top_b = np.argsort(-dense_b, axis=1, kind="stable")[:, :k]
            assert np.array_equal(top_a, top_b)


# ----------------------------------------------------------------------
# LRU behaviour + telemetry
# ----------------------------------------------------------------------

class TestShardLRU:
    def test_eviction_order_and_reopen(self, ckg, tmp_path):
        _, sharded = _pair(ckg, tmp_path, chunk_users=8, max_open=2)
        assert sharded.num_shards >= 4
        first = sharded.users[0]
        last = sharded.users[-1]
        sharded.for_user(int(first))               # open shard 0
        sharded.for_user(int(last))                # open last shard
        assert sharded.open_shard_indices() == [0, sharded.num_shards - 1]
        mid_row = sharded.num_rows // 2
        sharded.for_user(int(sharded.users[mid_row]))  # evicts shard 0
        opened = sharded.open_shard_indices()
        assert len(opened) == 2
        assert 0 not in opened
        assert opened[0] == sharded.num_shards - 1     # LRU order kept
        # reopen-after-evict: the evicted shard reads correctly again
        again = sharded.for_user(int(first))
        assert again.sum() > 0

    def test_hit_miss_counters(self, ckg, tmp_path):
        _, sharded = _pair(ckg, tmp_path, chunk_users=8, max_open=2)
        telemetry.reset()
        with telemetry.enabled():
            sharded.for_user(int(sharded.users[0]))   # miss (open)
            sharded.for_user(int(sharded.users[1]))   # hit (same shard)
            sharded.for_user(int(sharded.users[-1]))  # miss
        counters = _counters()
        telemetry.reset()
        assert counters["storage.shard_misses"] == 2
        assert counters["storage.shard_hits"] == 1

    def test_hot_shard_stays_under_pressure(self, ckg, tmp_path):
        _, sharded = _pair(ckg, tmp_path, chunk_users=8, max_open=2)
        hot = 1
        hot_user = int(sharded.users[sharded._shards[hot]["row_start"]])
        sharded.for_user(hot_user)
        for index in range(sharded.num_shards):
            if index == hot:
                continue
            sharded.for_user(
                int(sharded.users[sharded._shards[index]["row_start"]]))
            sharded.for_user(hot_user)  # re-touch: must never be evicted
            assert hot in sharded.open_shard_indices()

    def test_concurrent_reads_through_service_lock(self, split):
        """Thread-hammered mmap-backed service: every reader sees the
        same rankings the serial pass produces (the RLock serializes
        access to the LRU'd shard handles)."""
        from repro.serve import RecommendationService, ServeConfig

        model = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=2, seed=0),
            TrainConfig(epochs=0, k=10, seed=0, ppr_method="push"))
        model.prepare(split)
        service = RecommendationService.from_recommender(
            model, split, ServeConfig(top_k=10), store="mmap")
        assert isinstance(service.scores, ShardedPPRScores)
        users = list(range(8))
        expected = [r.copy() for r in service.recommend(users)]
        service.reset_cache()
        failures = []

        def hammer():
            try:
                for _ in range(5):
                    got = service.recommend(users)
                    for a, b in zip(got, expected):
                        assert np.array_equal(a, b)
            except Exception as error:  # noqa: BLE001
                failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


# ----------------------------------------------------------------------
# Incremental maintenance: parity + targeted invalidation
# ----------------------------------------------------------------------

class TestIncrementalSharded:
    def _fresh_pairs(self, split, ckg, count):
        pairs = []
        for step in range(ckg.num_users * ckg.num_items):
            user = step % ckg.num_users
            item = (step * 7) % ckg.num_items
            if item not in split.train.positives(user) \
                    and (user, item) not in pairs:
                pairs.append((user, item))
                if len(pairs) == count:
                    break
        return pairs

    def test_matches_ram_incremental(self, split, ckg, tmp_path):
        ram, sharded = _pair(ckg, tmp_path, keep_residuals=True)
        pairs = self._fresh_pairs(split, ckg, 4)
        a = incremental_push(ckg, ram, pairs)
        b = incremental_push(ckg, sharded, pairs)
        assert isinstance(b.scores, ShardedPPRScores)
        assert np.array_equal(a.changed_users, b.changed_users)
        assert a.push_ops == b.push_ops
        assert np.array_equal(a.scores.toarray(), b.scores.toarray())
        for user in set(u for u, _ in pairs):
            assert np.array_equal(a.scores.residual_for_user(user),
                                  b.scores.residual_for_user(user))

    def test_targeted_invalidation_reuses_untouched_shards(self, tmp_path):
        """Two disconnected interaction islands, one shard each: a delta
        inside island A must rewrite only A's shard; B's is reused by
        reference and its files survive untouched."""
        ui = UserItemGraph(8, 4,
                           [(u, i) for u in range(4) for i in (0, 1)]
                           + [(u, i) for u in range(4, 8) for i in (2, 3)])
        ui = UserItemGraph(8, 4, [(u, i) for u, i in
                                  zip(ui.users.tolist(), ui.items.tolist())
                                  if not (u == 0 and i == 1)])
        kg = KnowledgeGraph(6, 1, [(0, 0, 4), (1, 0, 4), (2, 0, 5),
                                   (3, 0, 5)])
        graph = CollaborativeKG.build(ui, kg)
        sharded = forward_push_sharded(
            graph, range(8), str(tmp_path / "islands"), chunk_users=4,
            keep_residuals=True)
        assert sharded.num_shards == 2
        before = {entry["files"]["values"]: entry["row_start"]
                  for entry in sharded._shards}
        telemetry.reset()
        with telemetry.enabled():
            result = incremental_push(graph, sharded, [(0, 1)])
        counters = _counters()
        telemetry.reset()
        assert counters["storage.shards_reused"] == 1
        assert counters["storage.shards_rewritten"] == 1
        after = {entry["files"]["values"] for entry
                 in result.scores._shards}
        reused_files = set(before) & after
        assert len(reused_files) == 1
        # the reused shard is island B's (rows 4..8)
        assert before[next(iter(reused_files))] == 4
        # island B's users never changed
        assert all(int(u) < 4 for u in result.changed_users)
        # superseded shard files are gone from disk
        for name in set(before) - after:
            assert not os.path.exists(
                os.path.join(result.scores.directory, name))


# ----------------------------------------------------------------------
# Crash consistency of shard rewrites
# ----------------------------------------------------------------------

def _refuse(*args, **kwargs):
    raise OSError("injected failure")


class TestCrashConsistency:
    """A rewrite writes new shard files, replaces the manifest, then
    unlinks superseded files.  A failed replace must leave the previous
    version readable; a failed unlink must not fail the rewrite."""

    @pytest.fixture
    def store(self, ckg, tmp_path):
        return forward_push_sharded(
            ckg, range(24), str(tmp_path / "crash"), chunk_users=8,
            keep_residuals=True, max_open=1)

    @staticmethod
    def _rewrite(operation, ckg, store):
        """Run ``operation`` on ``store``; return the store it produces.

        ``incremental_push`` is the one operation that rewrites a store
        after its solve (the pruner degree-normalizes at lookup)."""
        assert operation == "incremental_push"
        item = next(i for i in range(ckg.num_items)
                    if not ckg.has_interaction(0, i))
        return incremental_push(ckg, store, [(0, item)]).scores

    @staticmethod
    def _arrays(store):
        return store.toarray(), [store.residual_for_user(user)
                                 for user in store.users.tolist()]

    @staticmethod
    def _assert_same(a, b):
        assert np.array_equal(a[0], b[0])
        for x, y in zip(a[1], b[1]):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("operation", ["incremental_push"])
    def test_failed_manifest_replace_keeps_previous_version(
            self, ckg, store, monkeypatch, operation):
        before = self._arrays(store)
        monkeypatch.setattr(os, "replace", _refuse)
        with pytest.raises(OSError, match="injected failure"):
            self._rewrite(operation, ckg, store)
        monkeypatch.undo()
        reopened = ShardedPPRScores(store.directory)
        assert reopened.manifest["version"] == 0
        self._assert_same(self._arrays(reopened), before)

    @pytest.mark.parametrize("operation", ["incremental_push"])
    def test_failed_unlink_still_publishes_new_version(
            self, ckg, store, monkeypatch, operation):
        monkeypatch.setattr(os, "unlink", _refuse)
        after = self._arrays(self._rewrite(operation, ckg, store))
        monkeypatch.undo()
        reopened = ShardedPPRScores(store.directory)
        assert reopened.manifest["version"] == 1
        self._assert_same(self._arrays(reopened), after)

    @staticmethod
    def _resolve(ckg, store, users):
        """Solve ``users`` again over ``store``'s directory."""
        return forward_push_sharded(
            ckg, users, store.directory, chunk_users=8,
            keep_residuals=True, overwrite=True)

    @staticmethod
    def _listed_files(store):
        """The manifest plus every file it names."""
        manifest = store.manifest
        return {MANIFEST_NAME, manifest["users_file"]}.union(
            *(entry["files"].values() for entry in manifest["shards"]))

    def test_failed_resolve_replace_keeps_previous_version(
            self, ckg, store, monkeypatch):
        before = self._arrays(store)
        monkeypatch.setattr(os, "replace", _refuse)
        with pytest.raises(OSError, match="injected failure"):
            self._resolve(ckg, store, list(reversed(range(24))))
        monkeypatch.undo()
        reopened = ShardedPPRScores(store.directory)
        assert reopened.manifest["version"] == 0
        self._assert_same(self._arrays(reopened), before)
        self._assert_same(self._arrays(store), before)

    def test_resolve_checks_every_user_before_writing(self, ckg, store):
        before = self._arrays(store)
        files = sorted(os.listdir(store.directory))
        with pytest.raises(ValueError, match="out of range"):
            self._resolve(ckg, store,
                          list(reversed(range(23))) + [ckg.num_users])
        assert sorted(os.listdir(store.directory)) == files
        self._assert_same(self._arrays(ShardedPPRScores(store.directory)),
                          before)
        self._assert_same(self._arrays(store), before)

    def test_resolve_is_a_new_version_and_drops_the_old_files(
            self, ckg, store, tmp_path):
        maintained = self._rewrite("incremental_push", ckg, store)
        assert maintained.manifest["version"] == 1
        users = list(reversed(range(24)))
        resolved = self._resolve(ckg, maintained, users)
        assert resolved.manifest["version"] == 2
        assert set(os.listdir(store.directory)) == \
            self._listed_files(resolved)
        fresh = forward_push_sharded(
            ckg, users, str(tmp_path / "fresh"), chunk_users=8,
            keep_residuals=True)
        assert fresh.manifest["users_file"] == "users.npy"
        assert all(name.startswith("shard_") and "_v0." in name
                   for entry in fresh.manifest["shards"]
                   for name in entry["files"].values())
        self._assert_same(self._arrays(resolved), self._arrays(fresh))
        again = self._rewrite("incremental_push", ckg, resolved)
        assert again.manifest["version"] == 3
        assert set(os.listdir(store.directory)) == self._listed_files(again)


# ----------------------------------------------------------------------
# Pickling by path (the spawn transport) + mmap CKG
# ----------------------------------------------------------------------

class TestByPathTransport:
    def test_sharded_scores_pickle_roundtrip(self, ckg, tmp_path):
        ram, sharded = _pair(ckg, tmp_path, max_open=3)
        clone = pickle.loads(pickle.dumps(sharded))
        assert clone.max_open == 3
        assert np.array_equal(clone.toarray(), ram.toarray())

    def test_mmap_ckg_roundtrip_and_solve(self, ckg, tmp_path):
        directory = str(tmp_path / "ckg")
        ckg.save_npy(directory)
        mmap_ckg = load_npy(directory)
        assert isinstance(mmap_ckg, MmapCollaborativeKG)
        for attribute in ("heads", "relations", "tails", "indptr",
                          "item_nodes"):
            assert np.array_equal(np.asarray(getattr(mmap_ckg, attribute)),
                                  getattr(ckg, attribute))
        clone = pickle.loads(pickle.dumps(mmap_ckg))
        a = forward_push_batch(ckg, [0, 1], chunk_users=2)
        b = forward_push_batch(clone, [0, 1], chunk_users=2)
        assert np.array_equal(a.toarray(), b.toarray())

    def test_power_mmap_matches_dense(self, ckg, tmp_path):
        users = list(range(8))
        dense = personalized_pagerank_batch(ckg, users).scores
        mapped = personalized_pagerank_mmap(
            ckg, users, str(tmp_path / "power.npy"), chunk_users=3)
        assert isinstance(mapped, np.memmap)
        assert np.array_equal(dense, np.asarray(mapped))


# ----------------------------------------------------------------------
# SparsePPRScores save/load (satellite: the residual round-trip audit)
# ----------------------------------------------------------------------

class TestSaveLoad:
    def test_roundtrip_without_residuals(self, ckg, tmp_path):
        scores = forward_push_batch(ckg, range(8), chunk_users=4)
        path = scores.save(str(tmp_path / "scores"))
        assert path.endswith(".npz")
        restored = SparsePPRScores.load(path)
        for attribute in ("users", "indptr", "node_ids", "values"):
            assert np.array_equal(getattr(scores, attribute),
                                  getattr(restored, attribute))
        assert restored.residual == scores.residual
        assert not restored.has_residuals

    def test_residuals_alpha_epsilon_roundtrip(self, ckg, tmp_path):
        scores = forward_push_batch(ckg, range(8), alpha=0.2, epsilon=1e-4,
                                    chunk_users=4, keep_residuals=True)
        restored = SparsePPRScores.load(
            scores.save(str(tmp_path / "res_scores")))
        assert restored.has_residuals
        assert restored.alpha == scores.alpha
        assert restored.epsilon == scores.epsilon
        for attribute in ("res_indptr", "res_node_ids", "res_values"):
            assert np.array_equal(getattr(scores, attribute),
                                  getattr(restored, attribute))

    def test_incremental_push_works_after_load(self, split, ckg, tmp_path):
        """Regression: a loaded structure must support maintenance —
        residual rows, alpha and epsilon all survive the round-trip."""
        scores = forward_push_batch(ckg, range(ckg.num_users),
                                    keep_residuals=True)
        restored = SparsePPRScores.load(
            scores.save(str(tmp_path / "maint")))
        pairs = [(0, next(i for i in range(ckg.num_items)
                          if i not in split.train.positives(0)))]
        direct = incremental_push(ckg, scores, pairs)
        loaded = incremental_push(ckg, restored, pairs)
        assert direct.push_ops == loaded.push_ops
        assert np.array_equal(direct.scores.toarray(),
                              loaded.scores.toarray())


# ----------------------------------------------------------------------
# Backend selection + trainer equivalence
# ----------------------------------------------------------------------

class TestStoreSelection:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert resolve_store(None) == "ram"
        monkeypatch.setenv(STORE_ENV_VAR, "mmap")
        assert resolve_store(None) == "mmap"
        assert resolve_store("ram") == "ram"      # explicit wins
        with pytest.raises(ValueError, match="ram"):
            resolve_store("tape")
        monkeypatch.setenv(STORE_ENV_VAR, "tape")
        with pytest.raises(ValueError, match=STORE_ENV_VAR):
            resolve_store(None)

    @pytest.mark.parametrize("ppr_method", ["push", "power"])
    def test_trainer_mmap_matches_ram(self, split, ppr_method, tmp_path):
        def prepare(store):
            rec = KUCNetRecommender(
                KUCNetConfig(dim=8, depth=2, seed=0),
                TrainConfig(epochs=0, k=10, seed=0, ppr_method=ppr_method,
                            ppr_chunk_users=16, ppr_store=store,
                            ppr_store_dir=(str(tmp_path / store)
                                           if store == "mmap" else None)))
            rec.prepare(split)
            return rec

        ram, mmap = prepare("ram"), prepare("mmap")
        if ppr_method == "power":
            assert np.array_equal(np.asarray(ram.ppr_scores),
                                  np.asarray(mmap.ppr_scores))
        else:
            assert isinstance(mmap.ppr_scores, ShardedPPRScores)
            assert np.array_equal(ram.ppr_scores.toarray(),
                                  mmap.ppr_scores.toarray())

    @pytest.mark.parametrize("store", ["ram", "mmap"])
    @pytest.mark.parametrize("ppr_method", ["push", "power"])
    def test_trainer_store_stays_as_solved(self, split, ppr_method, store,
                                           tmp_path):
        """Through a fit, a service, a served batch and a write, the
        trainer's scores stay bitwise what the solver wrote, and a shard
        store stays at the version its solve wrote."""
        from repro.serve import RecommendationService

        config = TrainConfig(epochs=1, k=10, seed=0, ppr_method=ppr_method,
                             ppr_chunk_users=16, ppr_store=store,
                             ppr_store_dir=str(tmp_path / "train"))
        rec = KUCNetRecommender(KUCNetConfig(dim=8, depth=2, seed=0),
                                config)
        rec.fit(split)
        service = RecommendationService.from_recommender(
            rec, split, store=store, store_dir=str(tmp_path / "serve"))
        service.recommend([0, 1, 2])
        item = next(i for i in range(rec.ckg.num_items)
                    if not rec.ckg.has_interaction(0, i))
        assert service.add_interactions([(0, item)])["added"] == 1

        users = np.arange(rec.ckg.num_users)
        if ppr_method == "power":
            solved = np.concatenate([
                personalized_pagerank_batch(
                    rec.ckg, users[start:start + 16],
                    alpha=config.ppr_alpha,
                    iterations=config.ppr_iterations).scores
                for start in range(0, users.size, 16)])
            assert np.array_equal(np.asarray(rec.ppr_scores), solved)
            return
        solve = dict(alpha=config.ppr_alpha, epsilon=config.ppr_epsilon,
                     top_m=config.ppr_top_m, chunk_users=16)
        if store == "ram":
            solved = forward_push_batch(rec.ckg, users, **solve)
            got = rec.ppr_scores
        else:
            solved = forward_push_sharded(rec.ckg, users,
                                          str(tmp_path / "solved"), **solve)
            manifest = rec.ppr_scores.manifest
            assert manifest["version"] == 0
            assert set(os.listdir(rec.ppr_scores.directory)) == {
                MANIFEST_NAME, manifest["users_file"]}.union(
                *(entry["files"].values() for entry in manifest["shards"]))
            assert set(os.listdir(rec.ppr_scores.directory)) == set(
                os.listdir(solved.directory))
            solved, got = (solved.select(users.tolist()),
                           rec.ppr_scores.select(users.tolist()))
        for name in ("users", "indptr", "node_ids", "values"):
            assert np.array_equal(getattr(got, name), getattr(solved, name))
        assert got.residual == solved.residual

    def test_trainer_env_var_selects_mmap(self, split, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, "mmap")
        rec = KUCNetRecommender(
            KUCNetConfig(dim=8, depth=2, seed=0),
            TrainConfig(epochs=0, k=10, seed=0, ppr_method="push"))
        rec.prepare(split)
        assert rec.ppr_store == "mmap"
        assert isinstance(rec.ppr_scores, ShardedPPRScores)
        assert isinstance(rec.ckg, MmapCollaborativeKG)

    def test_writer_refuses_silent_overwrite(self, ckg, tmp_path):
        directory = str(tmp_path / "once")
        forward_push_sharded(ckg, range(4), directory, chunk_users=2)
        with pytest.raises(FileExistsError, match="overwrite=True"):
            ShardWriter(directory, ckg.num_nodes)


# ----------------------------------------------------------------------
# Streamed generator (satellite: memory-bounded scale path)
# ----------------------------------------------------------------------

class TestStreamedGenerator:
    def test_memory_bounded_smoke(self):
        """Generating past the stream threshold stays within a peak-
        allocation budget that dense per-user Python lists would blow
        (60k users of sets/lists alone would be hundreds of MB)."""
        import tracemalloc

        from repro.data.synthetic import (STREAM_USER_THRESHOLD,
                                          SyntheticConfig, generate)

        config = SyntheticConfig(name="smoke", num_users=60_000,
                                 num_items=500, seed=3)
        assert config.num_users >= STREAM_USER_THRESHOLD  # auto-streams
        tracemalloc.start()
        dataset = generate(config)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 400 * 1024 * 1024, f"peak allocation {peak} bytes"
        assert dataset.ui_graph.num_users == 60_000
        assert dataset.ui_graph.num_interactions >= 2 * 60_000
        assert dataset.ui_graph.users.max() < 60_000
        assert dataset.kg.num_triplets > 0

    def test_streamed_flag_and_determinism(self):
        from repro.data.synthetic import SyntheticConfig, generate

        config = SyntheticConfig(name="s", num_users=300, num_items=120,
                                 stream=True, seed=11)
        a, b = generate(config), generate(config)
        assert np.array_equal(a.ui_graph.users, b.ui_graph.users)
        assert np.array_equal(a.ui_graph.items, b.ui_graph.items)
        assert np.array_equal(a.kg.heads, b.kg.heads)
        # plausible degree structure (mixture sampler, deduped)
        degrees = a.ui_graph.user_degrees()
        assert degrees.min() >= 1
        assert 2 <= degrees.mean() <= 20

    def test_scaled_keeps_stream_override(self):
        from repro.data.synthetic import SyntheticConfig

        config = SyntheticConfig(name="s", num_users=100, num_items=50,
                                 stream=True)
        assert config.scaled(2.0).stream is True

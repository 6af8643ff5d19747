"""Operation sequences against two services: RAM scores vs mmap shards.

A hypothesis state machine drives two :class:`RecommendationService`
objects in lockstep over one small random CKG and one untrained tiny
KUCNet.  One holds in-RAM ``SparsePPRScores``; the other holds a
sharded store of two-user shards with ``max_open=1``, so nearly every
read evicts a shard.  Steps are reads with repeated users, writes with
known pairs, in-batch duplicates and repeated users, and reloads of the
score state from disk.  After every step:

* the two stores are bitwise-equal (scores and every residual row);
* the two services rank identically, and no ranking holds a training
  or added positive;
* every cached ranking equals a fresh scoring of that user;
* every maintained score is within ``epsilon * max(outdeg, 1)`` of a
  converged power iteration on the current graph.
"""

import os
import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core import KUCNetConfig, TrainConfig
from repro.core.model import KUCNet
from repro.ppr import (SparsePPRScores, forward_push_batch,
                       forward_push_sharded, personalized_pagerank_batch)
from repro.serve import RecommendationService, ServeConfig
from repro.storage import ShardedPPRScores

from .test_ppr_incremental import _random_graph

EPSILON = 1e-4


class TwoStoreServices(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 10_000))
    def build(self, seed):
        ui, _, ckg = _random_graph(seed)
        self.num_users, self.num_items = ckg.num_users, ckg.num_items
        self.positives = {user: set() for user in range(self.num_users)}
        for user, item in zip(ui.users.tolist(), ui.items.tolist()):
            self.positives[user].add(item)
        self.directory = tempfile.mkdtemp(prefix="repro_stateful_")
        model_config = KUCNetConfig(dim=4, depth=2, seed=0)
        train_config = TrainConfig(seed=0, k=3, ppr_method="push")
        model = KUCNet(ckg.num_relations, model_config)
        users = range(self.num_users)
        stores = (
            forward_push_batch(ckg, users, epsilon=EPSILON,
                               keep_residuals=True),
            forward_push_sharded(ckg, users,
                                 os.path.join(self.directory, "shards"),
                                 epsilon=EPSILON, chunk_users=2,
                                 keep_residuals=True, max_open=1))
        # RAM maintenance runs in 3-row parts, the shards hold 2 rows
        self.ram, self.mmap = (
            RecommendationService(
                model, model_config, train_config, ckg, scores,
                self.positives,
                ServeConfig(top_k=3, cache_entries=3, chunk_users=3))
            for scores in stores)

    def teardown(self):
        shutil.rmtree(getattr(self, "directory", ""), ignore_errors=True)

    # ------------------------------------------------------------------
    @rule(data=st.data())
    def recommend(self, data):
        users = data.draw(st.lists(st.integers(0, self.num_users - 1),
                                   min_size=1, max_size=6))
        k = data.draw(st.integers(1, 3))
        for a, b in zip(self.ram.recommend(users, k=k),
                        self.mmap.recommend(users, k=k)):
            assert np.array_equal(a, b)

    @rule(data=st.data())
    def add_interactions(self, data):
        known = [(user, item) for user, items in self.positives.items()
                 for item in items]
        pair = st.tuples(st.integers(0, self.num_users - 1),
                         st.integers(0, self.num_items - 1))
        pairs = data.draw(st.lists(pair | st.sampled_from(known),
                                   min_size=1, max_size=4))
        if data.draw(st.booleans()):
            pairs.append(pairs[0])  # an in-batch duplicate
        a = self.ram.add_interactions(pairs)
        b = self.mmap.add_interactions(pairs)
        assert a == b
        for user, item in pairs:
            self.positives[user].add(item)

    @rule()
    def reload(self):
        path = self.ram.scores.save(os.path.join(self.directory, "ram"))
        self.ram.scores = SparsePPRScores.load(path)
        self.mmap.scores = ShardedPPRScores(self.mmap.scores.directory,
                                            max_open=1)

    # ------------------------------------------------------------------
    @invariant()
    def stores_bitwise_equal(self):
        ram, mmap = self.ram.scores, self.mmap.scores
        assert np.array_equal(ram.toarray(), mmap.toarray())
        for user in range(self.num_users):
            assert np.array_equal(ram.residual_for_user(user),
                                  mmap.residual_for_user(user))

    @invariant()
    def rankings_agree_and_exclude_positives(self):
        users = list(range(self.num_users))
        fresh = self.ram._score_batch(users)
        for a, b in zip(fresh, self.mmap._score_batch(users)):
            assert np.array_equal(a, b)
        for user, ranking in zip(users, fresh):
            assert not set(ranking.tolist()) & self.positives[user]
        for service in (self.ram, self.mmap):
            for user, ranking in service._cache.items():
                assert np.array_equal(ranking, fresh[user])

    @invariant()
    def scores_within_push_bound(self):
        ckg = self.ram.ckg
        users = list(range(self.num_users))
        truth = personalized_pagerank_batch(ckg, users, iterations=500,
                                            tolerance=1e-14)
        bound = EPSILON * np.maximum(np.diff(ckg.indptr), 1) + 1e-6
        for user in users:
            maintained = self.ram.scores.for_user(user).astype(np.float64)
            assert np.all(np.abs(maintained - truth.for_user(user))
                          <= bound)


TwoStoreServices.TestCase.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None)
TestTwoStoreServices = TwoStoreServices.TestCase

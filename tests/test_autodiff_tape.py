"""Tape lifetime: ``backward`` frees the graph it consumed, ``no_tape``
records none, and the shared sigmoid matches its three-``exp`` form.

The weakref tests run with the cyclic collector off: an intermediate
must die by reference counting alone, the moment its last use ends.
"""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor, no_tape
from repro.autodiff.tensor import stable_sigmoid
from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
from repro.core.model import KUCNet
from repro.data import lastfm_like, traditional_split


@pytest.fixture
def gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def prepared():
    split = traditional_split(lastfm_like(seed=0, scale=0.15), seed=0)
    recommender = KUCNetRecommender(
        KUCNetConfig(dim=8, depth=3, seed=0),
        TrainConfig(epochs=1, k=10, seed=0, batch_users=8))
    recommender.prepare(split)
    return recommender, split


def _intermediates(loss):
    """Every non-leaf node of ``loss``'s graph, ``loss`` excluded."""
    seen, stack, found = set(), list(loss._parents), []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            found.append(node)
            stack.extend(node._parents)
    return found


class TestFreedTape:
    def test_leaves_keep_gradients_intermediates_drop_theirs(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        hidden = x * 2.0
        loss = (hidden * hidden).sum()
        loss.backward()
        assert np.array_equal(x.grad, 8.0 * np.arange(3.0))
        for node in (hidden, loss):
            assert node.grad is None
            assert node._parents == ()

    def test_second_backward_on_one_loss_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        assert np.array_equal(x.grad, first)

    def test_backward_reaching_an_intermediate_another_loss_freed_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        shared = x * 2.0
        first = (shared * shared).sum()
        second = (shared * 3.0).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="freed"):
            second.backward()

    def test_training_step_tape_dies_when_backward_returns(self, prepared,
                                                          gc_off):
        recommender, split = prepared
        users = tuple(list(split.train.users_with_interactions())[:8])
        loss = recommender._train_step(users, split)
        refs = [weakref.ref(node) for node in _intermediates(loss)]
        assert len(refs) > 10
        loss.backward()
        assert [ref for ref in refs if ref() is not None] == []

    def test_scoring_intermediates_die_when_score_users_returns(
            self, prepared, gc_off, monkeypatch):
        recommender, _ = prepared
        refs = []
        score_all_items = KUCNet.score_all_items

        def spy(model, propagation, item_nodes):
            refs.extend(weakref.ref(state) for state in propagation.hidden)
            return score_all_items(model, propagation, item_nodes)

        monkeypatch.setattr(KUCNet, "score_all_items", spy)
        recommender.score_users([0, 1, 2])
        assert len(refs) == 4
        assert [ref for ref in refs if ref() is not None] == []


class TestNoTape:
    def test_nothing_recorded_inside(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        taped = ((x * x).sigmoid() + 1.0).sum()
        with no_tape():
            untaped = ((x * x).sigmoid() + 1.0).sum()
        assert untaped.data.tobytes() == taped.data.tobytes()
        assert untaped._parents == ()
        assert untaped._backward_fn is None
        assert not untaped.requires_grad

    def test_restored_on_exit_and_on_exception(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with pytest.raises(KeyError):
            with no_tape():
                with no_tape():
                    pass
                assert not (x * x).requires_grad
                raise KeyError("inside")
        assert (x * x)._parents == (x, x)

    def test_other_threads_keep_recording(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        entered, done = threading.Event(), threading.Event()
        seen = {}

        def other_thread():
            entered.wait(timeout=10)
            seen["parents"] = (x * x)._parents
            done.set()

        thread = threading.Thread(target=other_thread)
        thread.start()
        with no_tape():
            entered.set()
            assert done.wait(timeout=10)
            assert (x * x)._parents == ()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen["parents"] == (x, x)


def _three_exp_sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


#: ±0, ±inf, NaN, subnormals and |x| > 710, where exp(|x|) overflows
EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        5e-324, -5e-324, 1e-310, -1e-310,
                        710.5, -710.5, 745.2, -745.2, 1e308, -1e308])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 48),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_stable_sigmoid_bitwise_equals_three_exp_form(values):
    x = np.concatenate([values, EDGE_VALUES])
    with np.errstate(all="ignore"):
        assert stable_sigmoid(x).tobytes() == _three_exp_sigmoid(x).tobytes()

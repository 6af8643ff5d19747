"""Zero-tolerance oracles of the array-built dataset.

The interaction sampler, the graph constructors and the traditional
split replaced Python loops and tuple paths; the loops live on in
``tests/reference_ops.py``.  Every comparison here is bitwise: the same
arrays and dtypes, the same RNG state afterwards, the same ``ValueError``
messages.  ``tests/test_dataset_digests.py`` pins the preset outputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (PRESETS, Dataset, SyntheticConfig, generate,
                        traditional_split)
from repro.data.synthetic import (_build_item_kg, _sample_interactions,
                                  _sample_tastes)
from repro.graph import KnowledgeGraph, UserItemGraph
from repro.graph.knowledge import int_rows

from .reference_ops import (reference_knowledge_arrays,
                            reference_sample_interactions,
                            reference_traditional_split,
                            reference_user_item_arrays)

configs = st.builds(
    SyntheticConfig,
    name=st.just("oracle"),
    num_users=st.integers(1, 30),
    # as few as 1 item, so ``min(degree, num_items)`` binds
    num_items=st.integers(1, 40),
    num_communities=st.integers(1, 4),
    mean_degree=st.floats(0.0, 20.0),
    popularity_exponent=st.floats(0.0, 1.5),
    affinity_sharpness=st.floats(0.0, 3.0),
    taste_size=st.integers(0, 5),
    num_attr_relations=st.integers(1, 4),
    attrs_per_community=st.integers(1, 4),
    links_per_item=st.floats(0.0, 3.0),
    # 0 leaves every taste attribute without items
    attr_sharing=st.sampled_from([0.0, 0.3, 0.85, 1.0]),
    kg_noise=st.floats(0.0, 0.5),
    seed=st.integers(0, 2 ** 32 - 1),
)


def _items_and_tastes(config):
    """Replay ``generate`` up to the interaction sampler."""
    rng = np.random.default_rng(config.seed)
    item_community = rng.integers(0, config.num_communities,
                                  size=config.num_items)
    _, item_shared_attrs = _build_item_kg(rng, config, item_community)
    user_community = rng.integers(0, config.num_communities,
                                  size=config.num_users)
    tastes = _sample_tastes(rng, config, user_community)
    return rng, item_shared_attrs, tastes


class TestSampleInteractions:
    @settings(max_examples=60, deadline=None)
    @given(configs)
    def test_bitwise_equal_to_looped_sampler(self, config):
        rng, item_shared_attrs, tastes = _items_and_tastes(config)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state

        drawn = _sample_interactions(rng, config, item_shared_attrs, tastes)
        expected = reference_sample_interactions(replay, config,
                                                 item_shared_attrs, tastes)
        assert drawn.dtype == np.int64
        assert drawn.shape == (len(expected), 2)
        assert drawn.tolist() == [list(pair) for pair in expected]
        assert rng.bit_generator.state == replay.bit_generator.state

    @settings(max_examples=20, deadline=None)
    @given(configs)
    def test_generated_graph_equal_to_tuple_path(self, config):
        rng, item_shared_attrs, tastes = _items_and_tastes(config)
        pairs = reference_sample_interactions(rng, config, item_shared_attrs,
                                              tastes)
        users, items = reference_user_item_arrays(config.num_users,
                                                  config.num_items, pairs)
        ui = generate(config).ui_graph
        assert ui.users.dtype == ui.items.dtype == np.int64
        assert np.array_equal(ui.users, users)
        assert np.array_equal(ui.items, items)


ids = st.integers(-2, 7)


def _containers(rows):
    """The same rows as every input kind the constructors accept."""
    columns = list(zip(*rows)) if rows else []
    return [
        list(rows),
        (tuple(row) for row in rows),
        zip(*columns) if rows else iter(()),
        tuple(tuple(np.int32(v) if k % 2 else np.int64(v)
                    for k, v in enumerate(row)) for row in rows),
        np.asarray(rows, dtype=np.int64),
    ]


def _outcome(build):
    try:
        return tuple(build())
    except ValueError as error:
        return str(error)


def _assert_same(actual, expected):
    if isinstance(expected, str):
        assert actual == expected
        return
    assert not isinstance(actual, str), actual
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestUserItemConstructor:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6),
           st.lists(st.tuples(ids, ids), max_size=25))
    def test_bitwise_equal_to_tuple_path(self, num_users, num_items, rows):
        expected = _outcome(lambda: reference_user_item_arrays(
            num_users, num_items, rows))
        for container in _containers(rows):
            def build():
                graph = UserItemGraph(num_users, num_items, container)
                return graph.users, graph.items
            _assert_same(_outcome(build), expected)

    def test_flat_list_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            UserItemGraph(2, 2, [0, 1])
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            UserItemGraph(3, 3, [(0, 1, 2)])


class TestKnowledgeConstructor:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3),
           st.lists(st.tuples(ids, st.integers(-1, 4), ids), max_size=25))
    def test_bitwise_equal_to_tuple_path(self, num_entities, num_relations,
                                         rows):
        expected = _outcome(lambda: reference_knowledge_arrays(
            num_entities, num_relations, rows))
        for container in _containers(rows):
            def build():
                kg = KnowledgeGraph(num_entities, num_relations, container)
                return kg.heads, kg.relations, kg.tails
            _assert_same(_outcome(build), expected)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2 ** 31 - 1), st.integers(0, 3),
                              st.integers(0, 2 ** 31 - 1)), max_size=25))
    def test_overflow_fallback_equal_to_tuple_path(self, rows):
        # 2**31 entities x 4 relations overflows the composite key
        num_entities, num_relations = 2 ** 31, 4
        expected = reference_knowledge_arrays(num_entities, num_relations,
                                              rows)
        kg = KnowledgeGraph(num_entities, num_relations, rows)
        _assert_same((kg.heads, kg.relations, kg.tails), expected)

    def test_flat_list_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            KnowledgeGraph(3, 1, [0, 0, 1])


class TestIntRows:
    @pytest.mark.parametrize("empty", [[], (), iter(()), np.empty(0),
                                       np.empty((0, 5)), [[]]])
    @pytest.mark.parametrize("width", [2, 3])
    def test_empty_input_becomes_zero_rows(self, empty, width):
        rows = int_rows(empty, width, "row")
        assert rows.shape == (0, width)
        assert rows.dtype == np.int64

    def test_generator_drained_once(self):
        rows = int_rows(((u, u + 1) for u in range(3)), 2, "row")
        assert rows.tolist() == [[0, 1], [1, 2], [2, 3]]


class TestTraditionalSplit:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 10),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)),
                    max_size=60),
           st.floats(0.01, 0.99), st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_looped_split(self, num_users, num_items, rows,
                                           test_fraction, seed):
        rows = [(u % num_users, i % num_items) for u, i in rows]
        dataset = Dataset(name="oracle",
                          ui_graph=UserItemGraph(num_users, num_items, rows),
                          kg=KnowledgeGraph(num_items, 1, []))
        split = traditional_split(dataset, test_fraction=test_fraction,
                                  seed=seed)
        users, items, test_positives = reference_traditional_split(
            dataset, test_fraction=test_fraction, seed=seed)
        _assert_same((split.train.users, split.train.items), (users, items))
        assert list(split.test_positives) == list(test_positives)
        assert split.test_positives == test_positives

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 5])
    def test_presets_equal_to_looped_split(self, preset, seed):
        """Preset degrees (up to dozens of items a user) at two fractions."""
        dataset = PRESETS[preset](seed=seed, scale=0.2)
        for test_fraction in (0.2, 0.5):
            split = traditional_split(dataset, test_fraction=test_fraction,
                                      seed=seed)
            users, items, test_positives = reference_traditional_split(
                dataset, test_fraction=test_fraction, seed=seed)
            _assert_same((split.train.users, split.train.items),
                         (users, items))
            assert list(split.test_positives) == list(test_positives)
            assert split.test_positives == test_positives

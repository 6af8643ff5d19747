"""Tests for synthetic dataset generation, splits, and serialization."""

import numpy as np
import pytest

from repro.data import (Dataset, SyntheticConfig, alibaba_ifashion_like,
                        amazon_book_like, disgenet_like, generate,
                        lastfm_like, load_dataset, new_item_split,
                        new_user_split, save_dataset, traditional_split)


@pytest.fixture(scope="module")
def small():
    return lastfm_like(seed=3, scale=0.3)


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = lastfm_like(seed=7, scale=0.2)
        b = lastfm_like(seed=7, scale=0.2)
        assert np.array_equal(a.ui_graph.users, b.ui_graph.users)
        assert np.array_equal(a.kg.heads, b.kg.heads)

    def test_different_seeds_differ(self):
        a = lastfm_like(seed=1, scale=0.2)
        b = lastfm_like(seed=2, scale=0.2)
        assert not (np.array_equal(a.ui_graph.users, b.ui_graph.users)
                    and np.array_equal(a.ui_graph.items, b.ui_graph.items))

    def test_every_user_has_interactions(self, small):
        degrees = small.ui_graph.user_degrees()
        assert degrees.min() >= 2

    def test_items_are_aligned_identity(self, small):
        assert np.array_equal(small.item_to_entity,
                              np.arange(small.num_items))

    def test_kg_entities_cover_items(self, small):
        assert small.kg.num_entities >= small.num_items

    def test_statistics_keys(self, small):
        stats = small.statistics()
        for key in ("users", "items", "interactions", "entities",
                    "relations", "triplets"):
            assert key in stats
            assert stats[key] >= 0

    def test_ifashion_is_first_order_dominated(self):
        """The iFashion analogue's attributes are mostly item-unique."""
        rich = lastfm_like(seed=0, scale=0.3)
        poor = alibaba_ifashion_like(seed=0, scale=0.3)

        def shared_attr_fraction(dataset):
            # attribute entities with >= 2 inbound edges / all attr entities
            degrees = np.bincount(dataset.kg.tails,
                                  minlength=dataset.kg.num_entities)
            attr = degrees[dataset.num_items:]
            attr = attr[attr > 0]
            return (attr >= 2).mean() if attr.size else 0.0

        assert shared_attr_fraction(rich) > shared_attr_fraction(poor)

    def test_disgenet_has_user_kg(self):
        dataset = disgenet_like(seed=0, scale=0.4)
        assert dataset.num_user_relations == 1
        assert len(dataset.user_triplets) > 0
        users = {u for u, _, _ in dataset.user_triplets}
        assert max(users) < dataset.num_users

    def test_scaled_config(self):
        config = SyntheticConfig(name="x", num_users=100, num_items=50)
        scaled = config.scaled(0.5)
        assert scaled.num_users == 50
        assert scaled.num_items == 25
        assert config.num_users == 100  # original untouched

    def test_build_ckg_from_dataset(self, small):
        ckg = small.build_ckg()
        assert ckg.num_users == small.num_users
        assert ckg.num_edges >= 2 * small.ui_graph.num_interactions

    def test_disgenet_ckg_includes_user_edges(self):
        dataset = disgenet_like(seed=0, scale=0.4)
        ckg = dataset.build_ckg()
        # user->user edges exist
        heads, rels, tails = ckg.out_edges(np.arange(dataset.num_users))
        user_user = (heads < dataset.num_users) & (tails < dataset.num_users)
        assert user_user.any()


class TestTraditionalSplit:
    def test_every_test_item_in_train(self, small):
        split = traditional_split(small, seed=0)
        train_items = {int(i) for i in split.train.items}
        for items in split.test_positives.values():
            assert items <= train_items

    def test_no_overlap_between_train_and_test(self, small):
        split = traditional_split(small, seed=0)
        for user, items in split.test_positives.items():
            assert not (items & split.train.positives(user))

    def test_interaction_conservation(self, small):
        split = traditional_split(small, seed=0)
        # train + test <= total (test may drop items unseen in training)
        total = split.train.num_interactions + split.num_test_interactions()
        assert total <= small.ui_graph.num_interactions
        assert total >= 0.9 * small.ui_graph.num_interactions

    def test_every_user_keeps_a_training_item(self, small):
        split = traditional_split(small, seed=0)
        for user in split.test_positives:
            assert split.train.positives(user)

    def test_fraction_validation(self, small):
        with pytest.raises(ValueError):
            traditional_split(small, test_fraction=0.0)
        with pytest.raises(ValueError):
            traditional_split(small, test_fraction=1.0)

    def test_deterministic(self, small):
        a = traditional_split(small, seed=5)
        b = traditional_split(small, seed=5)
        assert a.test_positives == b.test_positives


class TestNewItemSplit:
    def test_held_out_items_absent_from_train(self, small):
        split = new_item_split(small, fold=0, seed=0)
        train_items = {int(i) for i in split.train.items}
        test_items = set(split.candidate_items.tolist())
        assert not (train_items & test_items)

    def test_test_positives_are_candidates(self, small):
        split = new_item_split(small, fold=0, seed=0)
        candidates = set(split.candidate_items.tolist())
        for items in split.test_positives.values():
            assert items <= candidates

    def test_folds_partition_items(self, small):
        all_items = set()
        for fold in range(5):
            split = new_item_split(small, fold=fold, seed=0)
            fold_items = set(split.candidate_items.tolist())
            assert not (all_items & fold_items)
            all_items |= fold_items
        assert all_items == set(range(small.num_items))

    def test_fold_validation(self, small):
        with pytest.raises(ValueError):
            new_item_split(small, fold=5, num_folds=5)


class TestNewUserSplit:
    def test_held_out_users_have_no_training_history(self, small):
        split = new_user_split(small, fold=0, seed=0)
        for user in split.test_positives:
            assert not split.train.positives(user)

    def test_folds_partition_users(self, small):
        all_users = set()
        for fold in range(5):
            split = new_user_split(small, fold=fold, seed=0)
            fold_users = set(split.test_positives)
            assert not (all_users & fold_users)
            all_users |= fold_users
        # every user with interactions appears in exactly one test fold
        assert all_users == set(small.ui_graph.users_with_interactions())


class TestSerialization:
    def test_roundtrip(self, small, tmp_path):
        directory = str(tmp_path / "dataset")
        save_dataset(small, directory)
        loaded = load_dataset(directory)
        assert loaded.name == small.name
        assert loaded.num_users == small.num_users
        assert np.array_equal(loaded.ui_graph.users, small.ui_graph.users)
        assert np.array_equal(loaded.ui_graph.items, small.ui_graph.items)
        assert np.array_equal(loaded.kg.heads, small.kg.heads)
        assert np.array_equal(loaded.kg.relations, small.kg.relations)
        assert np.array_equal(loaded.item_to_entity, small.item_to_entity)

    def test_roundtrip_with_user_kg(self, tmp_path):
        dataset = disgenet_like(seed=0, scale=0.4)
        directory = str(tmp_path / "disgenet")
        save_dataset(dataset, directory)
        loaded = load_dataset(directory)
        assert loaded.num_user_relations == 1
        assert sorted(loaded.user_triplets) == sorted(dataset.user_triplets)

    def test_malformed_file_rejected(self, tmp_path, small):
        directory = str(tmp_path / "broken")
        save_dataset(small, directory)
        with open(f"{directory}/kg.tsv", "a") as handle:
            handle.write("1\t2\n")  # wrong column count
        with pytest.raises(ValueError):
            load_dataset(directory)


class TestPresets:
    @pytest.mark.parametrize("preset", [lastfm_like, amazon_book_like,
                                        alibaba_ifashion_like, disgenet_like])
    def test_presets_generate_valid_datasets(self, preset):
        dataset = preset(seed=0, scale=0.2)
        assert dataset.ui_graph.num_interactions > 0
        assert dataset.kg.num_triplets > 0
        ckg = dataset.build_ckg()
        assert ckg.num_edges > 0


class TestSplitHelpers:
    def test_num_test_interactions(self, small):
        split = traditional_split(small, seed=0)
        total = sum(len(items) for items in split.test_positives.values())
        assert split.num_test_interactions() == total

    def test_test_users_sorted(self, small):
        split = traditional_split(small, seed=0)
        assert split.test_users == sorted(split.test_positives)

    def test_statistics_match_manual_counts(self, small):
        stats = small.statistics()
        assert stats["users"] == small.ui_graph.num_users
        assert stats["items"] == small.ui_graph.num_items
        assert stats["interactions"] == small.ui_graph.num_interactions
        assert stats["entities"] == small.kg.num_entities
        assert stats["triplets"] == (small.kg.num_triplets
                                     + len(small.user_triplets))

"""Dataset container and train/test splits for the three evaluation settings.

The paper evaluates in three regimes:

* **traditional** (§V-B): interactions are split per user; every test item
  also appears in training (``I_test ⊂ I_train``).
* **new item** (§V-C): one fifth of the *items* is held out; all their
  interactions move to the test set and the models can only reach them
  through the KG.
* **new user** (§V-D): one fifth of the *users* is held out; their
  interactions are all test, and models can only reach them through
  user-side KG links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..graph import CollaborativeKG, KnowledgeGraph, UserItemGraph
from ..graph.user_item import positives_by_user


@dataclass
class Dataset:
    """A complete recommendation dataset: interactions + KG + alignment.

    Attributes
    ----------
    name:
        Dataset label (e.g. ``lastfm_like``).
    ui_graph:
        All observed user-item interactions.
    kg:
        Item-side knowledge graph.
    item_to_entity:
        Alignment array (``-1`` = unaligned item).
    user_triplets / num_user_relations:
        Optional user-side KG (DisGeNet's disease-disease relation).
    """

    name: str
    ui_graph: UserItemGraph
    kg: KnowledgeGraph
    item_to_entity: Optional[np.ndarray] = None
    user_triplets: List[Tuple[int, int, int]] = field(default_factory=list)
    num_user_relations: int = 0

    @property
    def num_users(self) -> int:
        return self.ui_graph.num_users

    @property
    def num_items(self) -> int:
        return self.ui_graph.num_items

    def build_ckg(self, train_graph: Optional[UserItemGraph] = None) -> CollaborativeKG:
        """Build the CKG over ``train_graph`` (defaults to all interactions).

        Evaluation-time CKGs must be built over the *training* graph only,
        so test interactions never leak into message passing.
        """
        graph = train_graph if train_graph is not None else self.ui_graph
        return CollaborativeKG.build(
            graph, self.kg,
            item_to_entity=self.item_to_entity,
            user_triplets=self.user_triplets or None,
            num_user_relations=self.num_user_relations,
        )

    def statistics(self) -> Dict[str, int]:
        """Table II-style dataset statistics."""
        return {
            "users": self.num_users,
            "items": self.num_items,
            "interactions": self.ui_graph.num_interactions,
            "entities": self.kg.num_entities,
            "relations": self.kg.num_relations + (1 if self.num_user_relations else 0) * self.num_user_relations,
            "triplets": self.kg.num_triplets + len(self.user_triplets),
        }


@dataclass
class Split:
    """A train/test division of a dataset.

    ``train`` drives model fitting and CKG construction; ``test_positives``
    maps each evaluation user to their held-out positive items.
    ``candidate_items`` restricts ranking to a given item set (used in the
    new-item setting, where only held-out items are valid candidates).
    """

    dataset: Dataset
    train: UserItemGraph
    test_positives: Dict[int, Set[int]]
    setting: str
    candidate_items: Optional[np.ndarray] = None

    @property
    def test_users(self) -> List[int]:
        return sorted(self.test_positives)

    def num_test_interactions(self) -> int:
        return sum(len(items) for items in self.test_positives.values())


def traditional_split(dataset: Dataset, test_fraction: float = 0.2,
                      seed: int = 0) -> Split:
    """Per-user holdout split (§V-B): every user keeps >= 1 training item.

    Users with a single interaction stay train-only.  Test items are
    guaranteed to appear in training for some user (items never observed
    in training are dropped from test, enforcing ``I_test ⊂ I_train``).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    ui = dataset.ui_graph
    # Each user's items are one sorted slice of the (user, item)-sorted
    # arrays; held-out positions are cleared from a mask over them.
    keep = np.ones(ui.num_interactions, dtype=bool)
    test_map: Dict[int, Set[int]] = {}
    users, starts = np.unique(ui.users, return_index=True)
    bounds = np.append(starts, ui.num_interactions).tolist()
    for user, start, stop in zip(users.tolist(), bounds, bounds[1:]):
        count = stop - start
        if count < 2:
            continue
        items = ui.items[start:stop]
        shuffled = items.tolist()
        rng.shuffle(shuffled)
        num_test = max(1, int(round(count * test_fraction)))
        num_test = min(num_test, count - 1)
        held = shuffled[:num_test]
        test_map[user] = set(held)
        keep[start + np.searchsorted(items, held)] = False

    train = ui.masked(keep)
    trained_items = set(train.items.tolist())
    cleaned = {user: {i for i in items if i in trained_items}
               for user, items in test_map.items()}
    cleaned = {user: items for user, items in cleaned.items() if items}
    return Split(dataset=dataset, train=train, test_positives=cleaned,
                 setting="traditional")


def new_item_split(dataset: Dataset, fold: int = 0, num_folds: int = 5,
                   seed: int = 0) -> Split:
    """New-item split (§V-C): hold out one fold of *items* entirely.

    All interactions with held-out items become test; the training graph
    has no edge touching them, so they are reachable only through the KG.
    Ranking candidates are restricted to the held-out items.
    """
    if not 0 <= fold < num_folds:
        raise ValueError(f"fold must be in [0, {num_folds})")
    rng = np.random.default_rng(seed)
    ui = dataset.ui_graph
    permutation = rng.permutation(ui.num_items)
    folds = np.array_split(permutation, num_folds)
    held = np.zeros(ui.num_items, dtype=bool)
    held[folds[fold]] = True

    test = held[ui.items]
    train = ui.masked(~test)
    return Split(dataset=dataset, train=train,
                 test_positives=positives_by_user(ui.users[test], ui.items[test]),
                 setting="new_item", candidate_items=np.flatnonzero(held))


def new_user_split(dataset: Dataset, fold: int = 0, num_folds: int = 5,
                   seed: int = 0) -> Split:
    """New-user split (§V-D): hold out one fold of *users* entirely.

    Held-out users have no training history; they are reachable only via
    user-side KG triplets (disease-disease links in the DisGeNet analogue).
    """
    if not 0 <= fold < num_folds:
        raise ValueError(f"fold must be in [0, {num_folds})")
    rng = np.random.default_rng(seed)
    ui = dataset.ui_graph
    permutation = rng.permutation(ui.num_users)
    folds = np.array_split(permutation, num_folds)
    held = np.zeros(ui.num_users, dtype=bool)
    held[folds[fold]] = True

    test = held[ui.users]
    train = ui.masked(~test)
    return Split(dataset=dataset, train=train,
                 test_positives=positives_by_user(ui.users[test], ui.items[test]),
                 setting="new_user")

"""User-item interaction graph (§III of the paper).

Implicit-feedback interactions under the bipartite-graph view: a set of
``(u, i)`` pairs meaning user ``u`` interacted with item ``i``, stored as
parallel integer arrays with per-user positive-set indexes for O(1)
membership tests during negative sampling and evaluation masking.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .knowledge import int_rows


class UserItemGraph:
    """Bipartite implicit-feedback interaction graph.

    Parameters
    ----------
    num_users, num_items:
        Sizes of the user and item id spaces (ids are dense in
        ``[0, num_users)`` / ``[0, num_items)``).
    interactions:
        ``(n, 2)`` array or iterable of ``(user, item)`` pairs.
        Duplicates are dropped; the arrays are sorted by pair.
    """

    def __init__(self, num_users: int, num_items: int,
                 interactions: Iterable[Tuple[int, int]]):
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = int(num_users)
        self.num_items = int(num_items)

        array = int_rows(interactions, 2, "interaction")
        if array.size:
            if array[:, 0].min() < 0 or array[:, 0].max() >= num_users:
                raise ValueError("interaction user id out of range")
            if array[:, 1].min() < 0 or array[:, 1].max() >= num_items:
                raise ValueError("interaction item id out of range")
        # Dedup + lexicographic sort through one composite key per pair.
        keys = np.unique(array[:, 0] * np.int64(num_items) + array[:, 1])
        self.users = keys // num_items
        self.items = keys % num_items
        # Built on first membership query: a million-user graph should
        # not pay for a million Python sets at construction time.
        self._positives: Optional[Dict[int, Set[int]]] = None

    def _positive_sets(self) -> Dict[int, Set[int]]:
        if self._positives is None:
            self._positives = positives_by_user(self.users, self.items)
        return self._positives

    # ------------------------------------------------------------------
    @property
    def num_interactions(self) -> int:
        return int(self.users.size)

    def positives(self, user: int) -> Set[int]:
        """Items the user interacted with (empty set if none)."""
        return self._positive_sets().get(int(user), set())

    def has_interaction(self, user: int, item: int) -> bool:
        return int(item) in self._positive_sets().get(int(user), ())

    def users_with_interactions(self) -> List[int]:
        """Sorted list of users that have at least one interaction."""
        return sorted(self._positive_sets())

    def item_degrees(self) -> np.ndarray:
        """Number of interactions per item."""
        return np.bincount(self.items, minlength=self.num_items)

    def user_degrees(self) -> np.ndarray:
        """Number of interactions per user."""
        return np.bincount(self.users, minlength=self.num_users)

    def density(self) -> float:
        """Fraction of the user-item matrix that is observed."""
        return self.num_interactions / float(self.num_users * self.num_items)

    # ------------------------------------------------------------------
    def restrict_items(self, allowed_items: Sequence[int]) -> "UserItemGraph":
        """Return a copy containing only interactions with ``allowed_items``.

        Used to build the new-item splits of §V-C: the training graph is the
        original graph restricted to the training item set.  Id spaces are
        unchanged, only edges are filtered.
        """
        allowed = np.zeros(self.num_items, dtype=bool)
        allowed[np.asarray(list(allowed_items), dtype=np.int64)] = True
        return self.masked(allowed[self.items])

    def restrict_users(self, allowed_users: Sequence[int]) -> "UserItemGraph":
        """Return a copy containing only interactions by ``allowed_users``
        (new-user splits of §V-D)."""
        allowed = np.zeros(self.num_users, dtype=bool)
        allowed[np.asarray(list(allowed_users), dtype=np.int64)] = True
        return self.masked(allowed[self.users])

    def masked(self, mask: np.ndarray) -> "UserItemGraph":
        """Return a copy holding the interactions where ``mask`` (a boolean
        array over :attr:`users`/:attr:`items`) is set."""
        return UserItemGraph(self.num_users, self.num_items,
                             np.stack([self.users[mask], self.items[mask]],
                                      axis=1))

    def __repr__(self) -> str:
        return (f"UserItemGraph(users={self.num_users}, items={self.num_items}, "
                f"interactions={self.num_interactions})")


def positives_by_user(users: np.ndarray, items: np.ndarray) -> Dict[int, Set[int]]:
    """``{user: set of items}`` from user-sorted parallel arrays, with the
    users in ascending order."""
    positives: Dict[int, Set[int]] = {}
    if users.size:
        uniq, starts = np.unique(users, return_index=True)
        for user, chunk in zip(uniq.tolist(), np.split(items, starts[1:])):
            positives[user] = set(chunk.tolist())
    return positives

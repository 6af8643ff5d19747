"""User-item interaction graph (§III of the paper).

Implicit-feedback interactions under the bipartite-graph view: a set of
``(u, i)`` pairs meaning user ``u`` interacted with item ``i``, stored as
parallel integer arrays with per-user positive-set indexes for O(1)
membership tests during negative sampling and evaluation masking.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


class UserItemGraph:
    """Bipartite implicit-feedback interaction graph.

    Parameters
    ----------
    num_users, num_items:
        Sizes of the user and item id spaces (ids are dense in
        ``[0, num_users)`` / ``[0, num_items)``).
    interactions:
        Iterable of ``(user, item)`` pairs.  Duplicates are dropped.
    """

    def __init__(self, num_users: int, num_items: int,
                 interactions: Iterable[Tuple[int, int]]):
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        self.num_users = int(num_users)
        self.num_items = int(num_items)

        if isinstance(interactions, np.ndarray):
            # Array fast path for generator-scale populations: dedup +
            # lexicographic sort via composite keys, no per-pair Python
            # objects.  Same (users, items) arrays as the tuple path.
            array = np.ascontiguousarray(interactions, dtype=np.int64)
            if array.size and (array.ndim != 2 or array.shape[1] != 2):
                raise ValueError(
                    "interaction array must have shape (n, 2)")
            if array.size:
                if array[:, 0].min() < 0 or array[:, 0].max() >= num_users:
                    raise ValueError("interaction user id out of range")
                if array[:, 1].min() < 0 or array[:, 1].max() >= num_items:
                    raise ValueError("interaction item id out of range")
                keys = np.unique(array[:, 0] * np.int64(num_items)
                                 + array[:, 1])
                users = keys // num_items
                items = keys % num_items
            else:
                users = np.empty(0, dtype=np.int64)
                items = np.empty(0, dtype=np.int64)
        else:
            pairs = sorted(set((int(u), int(i)) for u, i in interactions))
            if pairs:
                users = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
                items = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
            else:
                users = np.empty(0, dtype=np.int64)
                items = np.empty(0, dtype=np.int64)
            if users.size:
                if users.min() < 0 or users.max() >= num_users:
                    raise ValueError("interaction user id out of range")
                if items.min() < 0 or items.max() >= num_items:
                    raise ValueError("interaction item id out of range")
        self.users = users
        self.items = items
        # Built on first membership query: a million-user graph should
        # not pay for a million Python sets at construction time.
        self._positives: Optional[Dict[int, Set[int]]] = None

    def _positive_sets(self) -> Dict[int, Set[int]]:
        if self._positives is None:
            positives: Dict[int, Set[int]] = {}
            if self.users.size:
                uniq, starts = np.unique(self.users, return_index=True)
                bounds = np.append(starts, self.users.size)
                for k, user in enumerate(uniq.tolist()):
                    positives[user] = set(
                        self.items[bounds[k]:bounds[k + 1]].tolist())
            self._positives = positives
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
        mask = allowed[self.items]
        return UserItemGraph(self.num_users, self.num_items,
                             zip(self.users[mask].tolist(), self.items[mask].tolist()))

    def restrict_users(self, allowed_users: Sequence[int]) -> "UserItemGraph":
        """Return a copy containing only interactions by ``allowed_users``
        (new-user splits of §V-D)."""
        allowed = np.zeros(self.num_users, dtype=bool)
        allowed[np.asarray(list(allowed_users), dtype=np.int64)] = True
        mask = allowed[self.users]
        return UserItemGraph(self.num_users, self.num_items,
                             zip(self.users[mask].tolist(), self.items[mask].tolist()))

    def __repr__(self) -> str:
        return (f"UserItemGraph(users={self.num_users}, items={self.num_items}, "
                f"interactions={self.num_interactions})")

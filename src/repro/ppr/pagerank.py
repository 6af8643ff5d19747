"""Personalized PageRank by sparse power iteration (Eq. 13 of the paper).

The paper computes, for every user ``u``, a score vector ``r_u`` over all
CKG nodes with the iteration

    r_u^{k+1} = (1 - alpha) * M @ r_u^k + alpha * p_u,

where ``M`` is the column-normalized CKG adjacency, ``p_u`` the one-hot
restart vector of ``u``, and ``alpha = 0.15`` the restart probability,
run for ~20 steps.  Scores are a preprocessing step (Table VI) reused by
the top-K edge pruner of Algorithm 1.

We batch users by stacking restart vectors into a sparse matrix, so one
pass of sparse-dense products serves many users at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from ..graph import CollaborativeKG

DEFAULT_ALPHA = 0.15
DEFAULT_ITERATIONS = 20


@dataclass
class PPRScores:
    """PPR scores for a set of source users.

    Attributes
    ----------
    users:
        The user ids the rows correspond to.
    scores:
        Array of shape ``(len(users), num_nodes)``; ``scores[k, n]`` is the
        PPR mass of node ``n`` from user ``users[k]``'s perspective.
    residual:
        Max-norm change of the final iteration (convergence diagnostic).
    """

    users: np.ndarray
    scores: np.ndarray
    residual: float

    def __post_init__(self):
        self._row_of = {int(u): k for k, u in enumerate(self.users.tolist())}

    def for_user(self, user: int) -> np.ndarray:
        """Score vector over all nodes for ``user``."""
        row = self._row_of.get(int(user))
        if row is None:
            raise KeyError(f"no PPR scores computed for user {user}")
        return self.scores[row]

    def has_user(self, user: int) -> bool:
        return int(user) in self._row_of


def personalized_pagerank(ckg: CollaborativeKG, user: int,
                          alpha: float = DEFAULT_ALPHA,
                          iterations: int = DEFAULT_ITERATIONS,
                          adjacency: Optional[sp.spmatrix] = None) -> np.ndarray:
    """PPR score vector of one user (convenience wrapper)."""
    result = personalized_pagerank_batch(ckg, [user], alpha=alpha,
                                         iterations=iterations,
                                         adjacency=adjacency)
    return result.scores[0]


def personalized_pagerank_batch(ckg: CollaborativeKG, users: Sequence[int],
                                alpha: float = DEFAULT_ALPHA,
                                iterations: int = DEFAULT_ITERATIONS,
                                adjacency: Optional[sp.spmatrix] = None,
                                tolerance: float = 0.0) -> PPRScores:
    """Run Eq. (13) for a batch of users simultaneously.

    Parameters
    ----------
    ckg:
        The collaborative KG whose column-normalized adjacency drives the walk.
    users:
        User ids to compute scores for.
    alpha:
        Restart probability (paper default 0.15).
    iterations:
        Number of power-iteration steps (paper default 20).
    adjacency:
        Precomputed ``ckg.normalized_adjacency()`` to amortize across calls.
    tolerance:
        If positive, stop early once the max-norm update falls below it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    user_array = np.asarray(list(users), dtype=np.int64)
    if user_array.size == 0:
        raise ValueError("users must be non-empty")
    if user_array.min() < 0 or user_array.max() >= ckg.num_users:
        raise ValueError("user id out of range")

    matrix = adjacency if adjacency is not None else ckg.normalized_adjacency()
    num_nodes = ckg.num_nodes

    # Restart matrix: column k is the one-hot vector of users[k].
    restart = np.zeros((num_nodes, user_array.size))
    restart[user_array, np.arange(user_array.size)] = 1.0
    restart_mass = alpha * restart

    # Two iterate buffers: each sweep writes the new iterate over the
    # spare one, then spends the old iterate on the max-norm update.
    ranks = restart
    updated = np.empty_like(ranks)
    residual = np.inf
    with telemetry.span("ppr.power_iteration"):
        sweeps = 0
        for _ in range(iterations):
            np.multiply(1.0 - alpha, matrix @ ranks, out=updated)
            updated += restart_mass
            np.subtract(updated, ranks, out=ranks)
            residual = float(np.abs(ranks, out=ranks).max())
            ranks, updated = updated, ranks
            sweeps += 1
            if tolerance > 0.0 and residual < tolerance:
                break
    telemetry.counter("ppr.sweeps", sweeps)
    telemetry.counter("ppr.users", user_array.size)
    telemetry.gauge("ppr.residual", residual)

    return PPRScores(users=user_array, scores=ranks.T.copy(), residual=residual)


def personalized_pagerank_mmap(ckg: CollaborativeKG, users: Sequence[int],
                               out_path: str, alpha: float = DEFAULT_ALPHA,
                               iterations: int = DEFAULT_ITERATIONS,
                               chunk_users: int = 64) -> np.ndarray:
    """Power-iteration PPR written chunk-by-chunk into an on-disk array.

    The out-of-core counterpart of :func:`personalized_pagerank_batch`
    for the dense backend: rows land in a ``.npy`` memmap at
    ``out_path`` as each ``chunk_users`` batch converges, so peak RAM is
    one chunk's scores plus the adjacency — never the full
    ``(num_users, num_nodes)`` matrix.  Each chunk runs the exact same
    iteration as the in-RAM path, so the stored rows are
    bitwise-identical to it.  Returns the read-only memmap.
    """
    if chunk_users < 1:
        raise ValueError(f"chunk_users must be >= 1, got {chunk_users}")
    user_array = np.asarray(list(users), dtype=np.int64)
    if user_array.size == 0:
        raise ValueError("users must be non-empty")
    if not out_path.endswith(".npy"):
        out_path = out_path + ".npy"
    matrix = ckg.normalized_adjacency()
    out = np.lib.format.open_memmap(
        out_path, mode="w+", dtype=np.float64,
        shape=(user_array.size, ckg.num_nodes))
    with telemetry.span("ppr.power_iteration_mmap"):
        for start in range(0, user_array.size, chunk_users):
            chunk = user_array[start:start + chunk_users]
            part = personalized_pagerank_batch(
                ckg, chunk, alpha=alpha, iterations=iterations,
                adjacency=matrix)
            out[start:start + chunk.size] = part.scores
    out.flush()
    del out
    return np.load(out_path, mmap_mode="r")


def top_k_items_by_ppr(ckg: CollaborativeKG, scores: np.ndarray, k: int,
                       exclude_items: Optional[Sequence[int]] = None) -> np.ndarray:
    """Rank items by a user's PPR node scores (the PPR baseline of §V-C1).

    Parameters
    ----------
    ckg:
        Graph providing the item -> node mapping.
    scores:
        A single user's PPR vector over all nodes.
    k:
        Number of items to return.
    exclude_items:
        Items to mask out (e.g. the user's training positives).

    Returns
    -------
    Item ids sorted by descending PPR score.  Excluded items are never
    returned, so fewer than ``k`` items come back when the exclusions
    saturate the catalog (same contract as ``eval.metrics.rank_items``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    item_scores = scores[ckg.item_nodes].copy()
    if exclude_items is not None:
        item_scores[np.asarray(list(exclude_items), dtype=np.int64)] = -np.inf
    k = min(k, item_scores.size)
    top = np.argpartition(-item_scores, k - 1)[:k]
    ranked = top[np.argsort(-item_scores[top], kind="stable")]
    # When k reaches past the unmasked count, the argpartition tail is
    # -inf-masked exclusions — drop them instead of recommending them.
    return ranked[item_scores[ranked] > -np.inf]

"""Forward-push approximate PPR with sparse top-M score storage.

The power iteration of :mod:`repro.ppr.pagerank` materializes a dense
``(num_users, num_nodes)`` score matrix — O(U x N) memory and O(E x U)
compute per sweep — even though the Algorithm-1 pruner only ever reads a
handful of entries per edge expansion.  This module replaces both halves
of that cost:

* :func:`forward_push_batch` runs the Andersen–Chung–Lang *forward push*
  solver (Andersen, Chung & Lang, FOCS 2006) per source user, directly
  on the CKG CSR arrays.  A chunk of users is pushed together in
  frontier sweeps, and after the first sweep each one tests and updates
  only the cells the previous sweep spread into, so work follows the
  pushes made — ``O(1 / (alpha * epsilon))`` per user in the worst case,
  independent of graph size — instead of 20 full passes over every edge
  for every user.
* :class:`SparsePPRScores` keeps only the top-``M`` entries per user in
  CSR layout (``indptr`` / ``node_ids`` / ``values``, float32), cutting
  score storage from O(U x N) float64 to O(U x M) float32 while serving
  the pruner's gather through a vectorized binary-search
  :meth:`~SparsePPRScores.lookup`.

Invariant relating the two solvers: forward push maintains

    p(v) + sum_u r(u) * ppr_u(v) = ppr_source(v)

so after termination every true score is underestimated by at most
``epsilon * outdeg(v)``; with a small ``epsilon`` the top-K entries per
user — all the pruner consumes — match power iteration (see
``tests/test_ppr_push.py`` for the property test).

The same invariant powers *incremental maintenance* for online serving:
:func:`forward_push_batch` can keep the per-user residual vectors
(``keep_residuals=True``), and :func:`incremental_push` restores the
invariant after new interactions arrive — per inserted edge ``(h, t)``
with prior out-degree ``d(h)`` it folds the estimate mass already pushed
through ``h`` into adjusted ``p`` / ``r`` terms (Zhang, Lofgren & Goel,
KDD 2016) and then resumes pushing only the displaced residual, instead
of recomputing every user from scratch.  Only the score rows a write can
move — a non-zero estimate at an inserted head, or a stored residual
above its new threshold — are densified, re-swept and re-encoded; every
other row is carried as stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from ..graph import CollaborativeKG

DEFAULT_EPSILON = 1e-4
DEFAULT_TOP_M = 256
#: safety cap on vectorized frontier sweeps per user; the residual-mass
#: argument guarantees termination long before this in practice.
MAX_SWEEPS = 10_000

#: the score CSR and the residual CSR, as field names (and shard files)
CSR_FIELDS = ("indptr", "node_ids", "values")
RES_FIELDS = ("res_indptr", "res_node_ids", "res_values")


@dataclass
class SparsePPRScores:
    """Top-M PPR scores per user, stored as one CSR matrix.

    Row ``k`` holds user ``users[k]``'s retained entries:
    ``node_ids[indptr[k]:indptr[k + 1]]`` (sorted ascending) with scores
    ``values[indptr[k]:indptr[k + 1]]`` (float32).  Entries that were
    truncated (or never received pushed mass) read as ``0.0`` — the same
    convention the computation graph uses for unreached nodes.

    Attributes
    ----------
    users:
        User id per row.
    num_nodes:
        Width of the logical dense matrix (CKG node count).
    indptr / node_ids / values:
        CSR arrays; ``node_ids`` is sorted within each row.
    residual:
        Total residual mass left unpushed (an upper bound on the summed
        underestimation per user; convergence diagnostic).
    res_indptr / res_node_ids / res_values:
        Optional second CSR holding each user's *residual* vector
        (``keep_residuals=True``), the state :func:`incremental_push`
        resumes from.  Either all three are present or none.
    alpha / epsilon:
        Solver parameters recorded alongside kept residuals so
        maintenance continues with the exact same contract.

    The arrays may be memory maps: :class:`~repro.storage.ShardedPPRScores`
    opens each of its shards as one of these structures.
    """

    users: np.ndarray
    num_nodes: int
    indptr: np.ndarray
    node_ids: np.ndarray
    values: np.ndarray
    residual: float = 0.0
    res_indptr: Optional[np.ndarray] = None
    res_node_ids: Optional[np.ndarray] = None
    res_values: Optional[np.ndarray] = None
    alpha: Optional[float] = None
    epsilon: Optional[float] = None
    _keys: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float32)
        res_parts = (self.res_indptr, self.res_node_ids, self.res_values)
        if any(part is not None for part in res_parts):
            if any(part is None for part in res_parts):
                raise ValueError(
                    "res_indptr, res_node_ids and res_values must be "
                    "provided together")
            self.res_indptr = np.asarray(self.res_indptr, dtype=np.int64)
            self.res_node_ids = np.asarray(self.res_node_ids, dtype=np.int64)
            self.res_values = np.asarray(self.res_values, dtype=np.float32)
        self._row_of = {int(u): k for k, u in enumerate(self.users.tolist())}

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self.users.size)

    @property
    def nnz(self) -> int:
        return int(self.node_ids.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by the score storage (the ``ppr.score_bytes`` gauge)."""
        total = int(self.indptr.nbytes + self.node_ids.nbytes
                    + self.values.nbytes)
        if self.has_residuals:
            total += int(self.res_indptr.nbytes + self.res_node_ids.nbytes
                         + self.res_values.nbytes)
        return total

    @property
    def has_residuals(self) -> bool:
        """Whether per-user residual rows were kept for maintenance."""
        return self.res_indptr is not None

    def has_user(self, user: int) -> bool:
        return int(user) in self._row_of

    def _row(self, user: int) -> int:
        row = self._row_of.get(int(user))
        if row is None:
            raise KeyError(f"no PPR scores computed for user {user}")
        return row

    def residual_for_user(self, user: int) -> np.ndarray:
        """Densified residual vector for ``user`` (requires kept residuals)."""
        if not self.has_residuals:
            raise ValueError(
                "scores were computed without keep_residuals=True")
        return _to_dense(self.res_indptr, self.res_node_ids, self.res_values,
                         self.num_nodes, [self._row(user)], np.float32)[0]

    # ------------------------------------------------------------------
    def lookup(self, slots: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Scores for (row-slot, node) query pairs; missing entries are 0.

        ``slots`` index *rows* of this structure (the pruner's user
        slots), not user ids.  Queries may repeat and arrive in any
        order; the result aligns with the input element-wise.  Slots and
        nodes are bounds-checked: an out-of-range query raises
        ``IndexError`` naming the offender rather than silently reading
        a clamped position.
        """
        slots, nodes = check_lookup(slots, nodes, self.num_rows,
                                    self.num_nodes)
        return self.gather(slots, nodes)

    def gather(self, slots: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """:meth:`lookup` for int64 queries already known to be in range."""
        out = np.zeros(slots.size, dtype=np.float32)
        if self.nnz == 0 or slots.size == 0:
            return out
        if self._keys is None:
            # Composite keys row * num_nodes + node are globally sorted
            # (rows ascend; node_ids ascend within each row), so lookups
            # are a single searchsorted over all rows at once.  Built on
            # first use: a shard opened only for row reads never pays.
            rows = np.repeat(np.arange(self.num_rows, dtype=np.int64),
                             np.diff(self.indptr))
            self._keys = rows * np.int64(self.num_nodes) + self.node_ids
        wanted = slots * np.int64(self.num_nodes) + nodes
        positions = np.searchsorted(self._keys, wanted)
        positions = np.minimum(positions, self._keys.size - 1)
        found = self._keys[positions] == wanted
        out[found] = self.values[positions[found]]
        return out

    def dense_columns(self, nodes: np.ndarray) -> np.ndarray:
        """Dense ``(num_rows, len(nodes))`` gather of selected columns.

        Serves full-ranking consumers (the PPR baseline scores every
        item node) without densifying all ``num_nodes`` columns.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        slots = np.repeat(np.arange(self.num_rows, dtype=np.int64),
                          nodes.size)
        return self.lookup(slots, np.tile(nodes, self.num_rows)) \
            .reshape(self.num_rows, nodes.size)

    def for_user(self, user: int) -> np.ndarray:
        """Densified score vector over all nodes for ``user``."""
        return _to_dense(self.indptr, self.node_ids, self.values,
                         self.num_nodes, [self._row(user)], np.float32)[0]

    def toarray(self) -> np.ndarray:
        """Full dense ``(num_rows, num_nodes)`` float32 matrix."""
        return _to_dense(self.indptr, self.node_ids, self.values,
                         self.num_nodes, dtype=np.float32)

    def select(self, users: Sequence[int]) -> "SparsePPRScores":
        """Row subset for ``users`` (cheap CSR slice; rows realign to input).

        The counterpart of dense ``scores[list(users)]`` — the pruner's
        slot ``k`` then maps to row ``k`` of the result.  Maintenance
        metadata (kept residuals) stays with the full structure; the
        selection is a plain score view.  Users without a computed row
        raise ``KeyError`` naming the offenders.
        """
        missing = sorted({int(u) for u in users
                          if int(u) not in self._row_of})
        if missing:
            raise KeyError(
                f"no PPR scores computed for user(s) {missing}: "
                f"structure holds {self.num_rows} rows")
        rows = np.asarray([self._row_of[int(u)] for u in users],
                          dtype=np.int64)
        indptr, positions = _row_gather(self.indptr, rows)
        return SparsePPRScores(
            users=self.users[rows], num_nodes=self.num_nodes,
            indptr=indptr, node_ids=self.node_ids[positions],
            values=self.values[positions], residual=self.residual)

    # ------------------------------------------------------------------
    # Maintenance protocol, shared with ShardedPPRScores
    # ------------------------------------------------------------------
    def parts(self, chunk_users: int) -> Iterator["SparsePPRScores"]:
        """The rows in ranges of ``chunk_users``, as structures over views.

        Each part carries this structure's solver parameters and, when
        kept, its residual rows; :func:`incremental_push` maintains one
        part at a time.
        """
        groups = [CSR_FIELDS] + ([RES_FIELDS] if self.has_residuals else [])
        for start in range(0, self.num_rows, chunk_users):
            stop = min(start + chunk_users, self.num_rows)
            arrays = {}
            for indptr, node_ids, values in groups:
                offsets = getattr(self, indptr)[start:stop + 1]
                lo, hi = offsets[0], offsets[-1]
                arrays[indptr] = offsets - lo
                arrays[node_ids] = getattr(self, node_ids)[lo:hi]
                arrays[values] = getattr(self, values)[lo:hi]
            yield SparsePPRScores(
                users=self.users[start:stop], num_nodes=self.num_nodes,
                alpha=self.alpha, epsilon=self.epsilon, **arrays)

    def rewrite(self, parts: Iterable[Tuple["SparsePPRScores", bool]]
                ) -> "SparsePPRScores":
        """A new structure stacking maintained ``(part, moved)`` pairs.

        The in-RAM counterpart of
        :meth:`~repro.storage.ShardedPPRScores.rewrite`.  Every part is
        copied, moved or not, so the result never shares an array with
        this structure: each version owns its arrays, as each shard
        version owns its files.
        """
        return concat_sparse_scores(part for part, _ in parts)

    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Serialize every field — including the maintenance state — to npz.

        The residual CSR and the ``alpha`` / ``epsilon`` solver contract
        ride along when present, so :func:`incremental_push` keeps
        working on a structure that went through disk (regression-tested
        in ``tests/test_ppr_push.py``).  Returns the path written.
        """
        path = _npz_path(path)
        payload = dict(
            users=self.users, num_nodes=np.int64(self.num_nodes),
            indptr=self.indptr, node_ids=self.node_ids, values=self.values,
            residual=np.float64(self.residual))
        if self.has_residuals:
            payload.update(
                res_indptr=self.res_indptr, res_node_ids=self.res_node_ids,
                res_values=self.res_values)
        if self.alpha is not None:
            payload["alpha"] = np.float64(self.alpha)
        if self.epsilon is not None:
            payload["epsilon"] = np.float64(self.epsilon)
        np.savez(path, **payload)
        return path

    @classmethod
    def load(cls, path: str) -> "SparsePPRScores":
        """Inverse of :meth:`save`; restores maintenance state if stored."""
        path = _npz_path(path)
        with np.load(path) as payload:
            optional = {}
            if "res_indptr" in payload:
                optional.update(
                    res_indptr=payload["res_indptr"],
                    res_node_ids=payload["res_node_ids"],
                    res_values=payload["res_values"])
            if "alpha" in payload:
                optional["alpha"] = float(payload["alpha"])
            if "epsilon" in payload:
                optional["epsilon"] = float(payload["epsilon"])
            return cls(
                users=payload["users"],
                num_nodes=int(payload["num_nodes"]),
                indptr=payload["indptr"], node_ids=payload["node_ids"],
                values=payload["values"],
                residual=float(payload["residual"]), **optional)


def _npz_path(path: str) -> str:
    return path if path.endswith(".npz") else path + ".npz"


def check_lookup(slots: np.ndarray, nodes: np.ndarray, num_rows: int,
                 num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """``lookup`` queries as int64 arrays, or the error naming an offender."""
    slots = np.asarray(slots, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    if slots.size != nodes.size:
        raise ValueError(
            f"slots and nodes must align element-wise, got "
            f"{slots.size} slots and {nodes.size} nodes")
    bad_slots = (slots < 0) | (slots >= num_rows)
    if bad_slots.any():
        raise IndexError(
            f"slot {int(slots[bad_slots][0])} out of range for "
            f"{num_rows} score rows")
    bad_nodes = (nodes < 0) | (nodes >= num_nodes)
    if bad_nodes.any():
        raise IndexError(
            f"node {int(nodes[bad_nodes][0])} out of range for "
            f"num_nodes={num_nodes}")
    return slots, nodes


def _to_csr(dense: np.ndarray, top_m: Optional[int] = None
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, node_ids, values)`` of a dense ``(rows, nodes)`` block.

    Keeps every non-zero, node ids ascending within a row and values as
    float32.  With ``top_m``, a row holding more entries keeps only its
    ``top_m`` largest, as chosen by ``np.argpartition``.
    """
    num_rows, num_nodes = dense.shape
    flat_dense = dense.reshape(-1)
    # one 1-D nonzero over the block: faster than a 2-D one or per row
    flat = np.flatnonzero(flat_dense)
    row_starts = np.arange(num_rows + 1) * num_nodes
    indptr = np.searchsorted(flat, row_starts)
    counts = np.diff(indptr)
    if top_m is not None and counts.max(initial=0) > top_m:
        keep = np.ones(flat.size, dtype=bool)
        for row in np.flatnonzero(counts > top_m).tolist():
            lo, hi = indptr[row], indptr[row + 1]
            top = np.argpartition(-flat_dense[flat[lo:hi]], top_m - 1)
            keep[lo:hi] = False
            keep[lo + top[:top_m]] = True
        flat = flat[keep]
        indptr = np.searchsorted(flat, row_starts)
    return indptr, flat % num_nodes, flat_dense[flat].astype(np.float32)


def _row_gather(indptr: np.ndarray, rows: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, positions)`` of the CSR rows ``rows``, in that order.

    ``rows`` may repeat and come in any order; the entry arrays indexed
    by ``positions`` hold the rows' entries, each row's in stored order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    new_indptr = np.concatenate([[0], np.cumsum(lengths)])
    positions = (np.repeat(starts - new_indptr[:-1], lengths)
                 + np.arange(new_indptr[-1], dtype=np.int64))
    return new_indptr, positions


def _to_dense(indptr: np.ndarray, node_ids: np.ndarray, values: np.ndarray,
              num_nodes: int, rows: Optional[Sequence[int]] = None,
              dtype=np.float64) -> np.ndarray:
    """Dense ``(rows, num_nodes)`` block of CSR rows (inverse of
    :func:`_to_csr`): every row, or only ``rows``, in their order."""
    if rows is not None:
        indptr, positions = _row_gather(indptr, rows)
        node_ids, values = node_ids[positions], values[positions]
    num_rows = indptr.size - 1
    row_starts = np.repeat(np.arange(num_rows) * num_nodes, np.diff(indptr))
    dense = np.zeros(num_rows * num_nodes, dtype=dtype)
    dense[row_starts + node_ids] = values
    return dense.reshape(num_rows, num_nodes)


def _encode_chunk(users: np.ndarray, estimate: np.ndarray,
                  residual: Optional[np.ndarray], mass: float, alpha: float,
                  epsilon: float, top_m: Optional[int] = None
                  ) -> SparsePPRScores:
    """One solved dense chunk as a structure; ``mass`` is its residual
    total, and ``residual=None`` drops the residual rows."""
    arrays = dict(zip(CSR_FIELDS, _to_csr(estimate, top_m)))
    if residual is not None:
        arrays.update(zip(RES_FIELDS, _to_csr(residual)))
    return SparsePPRScores(users=users, num_nodes=estimate.shape[1],
                           residual=mass, alpha=alpha, epsilon=epsilon,
                           **arrays)


# ----------------------------------------------------------------------
# Solver
# ----------------------------------------------------------------------

DEFAULT_CHUNK_USERS = 64


def _check_solve(ckg: CollaborativeKG, users: Sequence[int], alpha: float,
                 epsilon: float, top_m: int, chunk_users: int) -> np.ndarray:
    """``users`` as an int64 array, or the error naming what is wrong
    with them or with a solver parameter."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    if chunk_users < 1:
        raise ValueError(f"chunk_users must be >= 1, got {chunk_users}")
    user_array = np.asarray(list(users), dtype=np.int64)
    if user_array.size == 0:
        raise ValueError("users must be non-empty")
    if user_array.min() < 0 or user_array.max() >= ckg.num_users:
        raise ValueError("user id out of range")
    return user_array


def _sweep_chunk(ckg: CollaborativeKG, estimate: np.ndarray,
                 residual: np.ndarray, thresholds: np.ndarray,
                 degrees: np.ndarray, inv_degrees: np.ndarray, alpha: float,
                 signed: bool = False,
                 touched: Optional[np.ndarray] = None) -> int:
    """Run frontier sweeps on one dense chunk until below threshold.

    Mutates the C-contiguous ``(chunk, num_nodes)`` arrays ``estimate``
    / ``residual`` in place and returns the push-op count (frontier
    nodes + traversed edges).  ``signed=True`` pushes whenever
    ``|r| > epsilon * outdeg`` — incremental maintenance can leave
    *negative* residual at the head of an inserted edge, and both signs
    must drain for the two-sided error bound to hold.  ``touched``
    (optional bool array, one slot per chunk row) is OR-ed with the rows
    that pushed, so callers can tell which users actually moved.

    The first frontier comes from a scan of the whole chunk, because
    maintenance resumes from float32-rounded residual rows that may sit
    above threshold anywhere.  Each sweep pushes (and zeroes) every cell
    above threshold, so afterwards only the cells it spread into can
    cross one, and only they are tested: the sweep sums its spreads per
    distinct target cell, adds the sums to those cells, and takes the
    next frontier from them in ascending flat (row-major) order.  A
    sweep whose spread entries reach a quarter of the chunk's cells adds
    one dense ``bincount`` and rescans the chunk instead.  Either way a
    cell receives its spreads summed in frontier order, so both paths
    give bitwise-identical frontiers, estimates and residuals.
    """
    batch, num_nodes = residual.shape
    cells = batch * num_nodes
    flat_estimate = estimate.reshape(-1)
    flat_residual = residual.reshape(-1)

    def above(values, limits):
        return (np.abs(values) if signed else values) > limits

    # per sparse sweep: an entry index, then a compact id, per target cell
    slot = np.empty(cells, dtype=np.int64)
    frontier = np.flatnonzero(above(residual, thresholds))
    ops = 0
    for _ in range(MAX_SWEEPS):
        if frontier.size == 0:
            break
        rows, nodes = np.divmod(frontier, num_nodes)
        mass = flat_residual[frontier]
        flat_estimate[frontier] += alpha * mass
        flat_residual[frontier] = 0.0
        out_degs = degrees[nodes]
        edge_ids = ckg.out_edge_ids(nodes)
        ops += int(edge_ids.size) + int(frontier.size)
        if touched is not None:
            touched[rows] = True
        spread = (mass * inv_degrees[nodes]).repeat(out_degs)
        tails = ckg.tails[edge_ids]
        targets = rows.repeat(out_degs) * np.int64(num_nodes) + tails
        if 4 * targets.size >= cells:
            flat_residual += np.bincount(targets, weights=spread,
                                         minlength=cells)
            frontier = np.flatnonzero(above(residual, thresholds))
            continue
        entries = np.arange(targets.size)
        slot[targets] = entries
        # one entry per distinct cell survives the write and reads itself
        first = slot[targets] == entries
        hit = targets[first]
        slot[hit] = np.arange(hit.size)
        updated = flat_residual[hit] + np.bincount(
            slot[targets], weights=spread, minlength=hit.size)
        flat_residual[hit] = updated
        frontier = np.sort(hit[above(updated, thresholds[tails[first]])])
    return ops


def _push_chunks(ckg: CollaborativeKG, user_array: np.ndarray, alpha: float,
                 epsilon: float, top_m: int, chunk_users: int,
                 keep_residuals: bool) -> Iterator[Tuple[int, SparsePPRScores]]:
    """Solve ``user_array`` chunk by chunk: ``(push ops, scores)`` each.

    The float64 estimate / residual pair is allocated once per solve,
    ``min(chunk_users, len(user_array))`` rows each.  A chunk runs on the
    leading ``[:batch]`` rows, which are C-contiguous like a fresh
    array, and they are zeroed again once the chunk is encoded, so every
    chunk starts from the state a fresh allocation would give it.  The
    encoded arrays are new, sharing no memory with the workspace.
    """
    num_nodes = ckg.num_nodes
    degrees = np.diff(ckg.indptr)
    inv_degrees = (1.0 - alpha) / np.maximum(degrees, 1)
    # Push v whenever r(v) > epsilon * outdeg(v); dangling nodes push
    # their restart share once (threshold 0) and never reactivate.
    thresholds = epsilon * degrees.astype(np.float64)
    rows = min(chunk_users, user_array.size)
    estimates = np.zeros((rows, num_nodes))
    residuals = np.zeros((rows, num_nodes))
    for start in range(0, user_array.size, chunk_users):
        chunk = user_array[start:start + chunk_users]
        batch = chunk.size
        estimate, residual = estimates[:batch], residuals[:batch]
        residual[np.arange(batch), chunk] = 1.0
        pushes = _sweep_chunk(ckg, estimate, residual, thresholds, degrees,
                              inv_degrees, alpha)
        yield pushes, _encode_chunk(
            chunk, estimate, residual if keep_residuals else None,
            float(residual.sum()), alpha, epsilon,
            top_m=None if keep_residuals else top_m)
        estimate.fill(0.0)
        residual.fill(0.0)


def forward_push_batch(ckg: CollaborativeKG, users: Sequence[int],
                       alpha: float = 0.15,
                       epsilon: float = DEFAULT_EPSILON,
                       top_m: int = DEFAULT_TOP_M,
                       chunk_users: int = DEFAULT_CHUNK_USERS,
                       keep_residuals: bool = False) -> SparsePPRScores:
    """Approximate PPR for each user by chunk-vectorized forward push.

    Users are processed in chunks of ``chunk_users``; a chunk's state is
    a pair of dense ``(chunk, num_nodes)`` arrays — estimate ``p`` and
    residual ``r`` (``r`` starts as one-hot restart rows).  Each sweep
    takes the whole frontier ``{(u, v) : r[u, v] > epsilon * outdeg(v)}``
    across every user in the chunk at once, moves ``alpha * r`` into
    ``p``, and spreads ``(1 - alpha) * r / outdeg`` along out-edges,
    summed per ``row * num_nodes + tail`` target cell.  Only those
    target cells are tested for the next frontier (see
    :func:`_sweep_chunk`), so a sweep costs what it pushes rather than
    a pass over the chunk.  Every chunk reuses one pair of dense arrays
    (see :func:`_push_chunks`), so peak temporary memory is
    O(chunk_users x num_nodes) regardless of how many users are
    requested.  Dangling nodes absorb their non-restart mass exactly as
    the column-normalized power iteration does (all-zero columns).

    Parameters
    ----------
    ckg:
        Graph whose CSR arrays (``indptr`` / ``tails``) drive the walk.
    users:
        Source users, one output row each.
    alpha:
        Restart probability (paper default 0.15).
    epsilon:
        Residual threshold; per-node underestimation is at most
        ``epsilon * outdeg(node)``.
    top_m:
        Retain at most this many entries per user (highest scores).
    chunk_users:
        Users pushed simultaneously (bounds temporary memory).
    keep_residuals:
        Also store each user's sparse residual row so
        :func:`incremental_push` can resume the solve after graph
        updates.  Implies *untruncated* estimate rows (``top_m`` is
        ignored): the maintenance invariant reads the estimate at every
        node an inserted edge touches, so silently dropping entries
        would corrupt later updates.
    """
    user_array = _check_solve(ckg, users, alpha, epsilon, top_m, chunk_users)
    parts = []
    total_pushes = 0
    with telemetry.span("ppr.forward_push"):
        for pushes, part in _push_chunks(ckg, user_array, alpha, epsilon,
                                         top_m, chunk_users, keep_residuals):
            total_pushes += pushes
            parts.append(part)
    scores = concat_sparse_scores(parts)

    telemetry.counter("ppr.push_ops", total_pushes)
    telemetry.counter("ppr.users", user_array.size)
    telemetry.gauge("ppr.residual_mass", scores.residual)
    telemetry.gauge("ppr.score_bytes", scores.nbytes)
    return scores


def forward_push_sharded(ckg: CollaborativeKG, users: Sequence[int],
                         directory: str, alpha: float = 0.15,
                         epsilon: float = DEFAULT_EPSILON,
                         top_m: int = DEFAULT_TOP_M,
                         chunk_users: int = DEFAULT_CHUNK_USERS,
                         keep_residuals: bool = False,
                         max_open: Optional[int] = None,
                         overwrite: bool = False):
    """Forward push written to disk shard-by-shard, never all in RAM.

    Same solver, same parameters, same chunking as
    :func:`forward_push_batch` — but each ``chunk_users`` chunk is
    flushed to ``directory`` as one ``.npy`` CSR shard the moment it
    finishes, so peak memory is a single chunk no matter how many users
    are requested.  The solver processes chunks independently and the
    shards store its exact per-chunk arrays, which is why reads from the
    returned :class:`~repro.storage.ShardedPPRScores` are
    bitwise-identical to the in-RAM backend on the same solve.

    The ``ppr.push_ops`` / ``ppr.users`` counters are recorded per
    chunk, with the totals of a single :func:`forward_push_batch` call;
    the ``ppr.residual_mass`` / ``ppr.score_bytes`` gauges are recorded
    with the whole-run values once the manifest is written.
    """
    from ..storage.sharded import ShardWriter
    # every chunk is checked before the first one is written
    user_array = _check_solve(ckg, users, alpha, epsilon, top_m, chunk_users)
    writer = ShardWriter(directory, ckg.num_nodes,
                         keep_residuals=keep_residuals, overwrite=overwrite)
    total_residual = 0.0
    with telemetry.span("ppr.forward_push_sharded"):
        for pushes, part in _push_chunks(ckg, user_array, alpha, epsilon,
                                         top_m, chunk_users, keep_residuals):
            telemetry.counter("ppr.push_ops", pushes)
            telemetry.counter("ppr.users", part.num_rows)
            total_residual += part.residual
            writer.append(part)
        store = writer.finalize(alpha=alpha, epsilon=epsilon,
                                max_open=max_open)
    telemetry.gauge("ppr.residual_mass", total_residual)
    telemetry.gauge("ppr.score_bytes", store.nbytes)
    return store


# ----------------------------------------------------------------------
# Incremental maintenance
# ----------------------------------------------------------------------


@dataclass
class IncrementalPushResult:
    """Outcome of :func:`incremental_push`.

    Attributes
    ----------
    ckg:
        The updated graph (new :class:`CollaborativeKG`; the input graph
        is never mutated).
    scores:
        Fresh scores of the input's type (with residuals kept) valid for
        ``ckg``; the input scores are never mutated, and the result
        shares no array with them.
    changed_users:
        User ids whose estimate rows differ from the input — the set a
        serving cache must invalidate.
    push_ops:
        Work done: resumed sweep ops plus one op per applied per-row
        edge adjustment (the ``ppr.incremental_pushes`` counter).
    """

    ckg: CollaborativeKG
    scores: SparsePPRScores
    changed_users: np.ndarray
    push_ops: int


def _delta_edges(ckg: CollaborativeKG,
                 pairs: Sequence[Tuple[int, int]]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inserted directed edges for an interaction delta, in order.

    Each pair contributes interact (user -> item node) then its reverse
    twin.  Returns ``(heads, tails, deg_at)`` where ``deg_at[j]`` is the
    head's out-degree at the moment edge ``j`` is applied — the old
    degree plus earlier insertions at the same head — so the correction
    holds exactly on each intermediate graph.
    """
    pair_array = np.asarray(pairs, dtype=np.int64)
    user_nodes = pair_array[:, 0]
    item_nodes = ckg.item_nodes[pair_array[:, 1]]
    ins_heads = np.empty(2 * len(pairs), dtype=np.int64)
    ins_tails = np.empty_like(ins_heads)
    ins_heads[0::2] = user_nodes
    ins_tails[0::2] = item_nodes
    ins_heads[1::2] = item_nodes
    ins_tails[1::2] = user_nodes

    old_degrees = np.diff(ckg.indptr)
    deg_at = old_degrees[ins_heads].copy()
    runs: dict = {}
    for j, head in enumerate(ins_heads.tolist()):
        deg_at[j] += runs.get(head, 0)
        runs[head] = runs.get(head, 0) + 1
    return ins_heads, ins_tails, deg_at


def _apply_delta_chunk(new_ckg: CollaborativeKG, estimate: np.ndarray,
                       residual: np.ndarray, ins_heads: np.ndarray,
                       ins_tails: np.ndarray, deg_at: np.ndarray,
                       alpha: float, thresholds: np.ndarray,
                       degrees: np.ndarray, inv_degrees: np.ndarray
                       ) -> Tuple[int, np.ndarray]:
    """Apply the per-edge corrections to one dense chunk, then re-sweep.

    Each row's float operations are independent of the other rows in
    the chunk, so any chunking (RAM row ranges, shards) produces
    bitwise-identical updated rows.  Mutates ``estimate`` /
    ``residual`` in place; returns ``(sweep_ops, touched)`` where
    ``touched`` flags the chunk rows whose state moved.
    """
    touched = np.zeros(estimate.shape[0], dtype=bool)
    for j in range(ins_heads.size):
        head = int(ins_heads[j])
        tail = int(ins_tails[j])
        degree = int(deg_at[j])
        p_head = estimate[:, head].copy()
        if degree == 0:
            residual[:, tail] += (1.0 - alpha) / alpha * p_head
        else:
            estimate[:, head] += p_head / degree
            residual[:, head] -= p_head / (alpha * degree)
            residual[:, tail] += (1.0 - alpha) * p_head / (alpha * degree)
        touched |= p_head != 0.0

    sweep_ops = _sweep_chunk(new_ckg, estimate, residual, thresholds,
                             degrees, inv_degrees, alpha, signed=True,
                             touched=touched)
    return sweep_ops, touched


def _movable_rows(part: SparsePPRScores, is_head: np.ndarray,
                  thresholds: np.ndarray) -> np.ndarray:
    """The rows of ``part`` a write can move, ascending.

    A row moves when its stored estimate is non-zero at an inserted head
    (the correction changes it) or when a stored residual's magnitude
    exceeds its threshold on the new graph (the resumed sweep's first
    scan pushes it).  The float32 residual promotes exactly to the
    float64 threshold, as in that scan.  On every other row the
    correction adds zeros and the sweep finds nothing to push.
    """
    heads = np.flatnonzero(is_head[part.node_ids])
    heads = heads[part.values[heads] != 0]
    above = np.flatnonzero(
        np.abs(part.res_values) > thresholds[part.res_node_ids])
    return np.union1d(
        np.searchsorted(part.indptr, heads, side="right") - 1,
        np.searchsorted(part.res_indptr, above, side="right") - 1)


def _splice(part: SparsePPRScores, rows: np.ndarray,
            block: SparsePPRScores) -> SparsePPRScores:
    """``part`` with its ``rows`` (ascending) replaced by ``block``'s."""
    # the rows of part stacked over block's, gathered in part's order
    source = np.arange(part.num_rows)
    source[rows] = part.num_rows + np.arange(rows.size)
    arrays = {}
    for indptr, node_ids, values in (CSR_FIELDS, RES_FIELDS):
        old = getattr(part, indptr)
        stacked = np.concatenate([old, old[-1] + getattr(block, indptr)[1:]])
        arrays[indptr], positions = _row_gather(stacked, source)
        for name in (node_ids, values):
            arrays[name] = np.concatenate(
                [getattr(part, name), getattr(block, name)])[positions]
    return SparsePPRScores(users=part.users, num_nodes=part.num_nodes,
                           alpha=part.alpha, epsilon=part.epsilon, **arrays)


def incremental_push(ckg: CollaborativeKG, scores,
                     new_interactions: Sequence[Tuple[int, int]],
                     chunk_users: int = DEFAULT_CHUNK_USERS
                     ) -> IncrementalPushResult:
    """Maintain forward-push PPR scores after new user-item interactions.

    Instead of re-running :func:`forward_push_batch` from scratch on the
    updated graph, this restores the push invariant

        ``p(v) + sum_u r(u) * ppr_u(v) = ppr_source(v)``

    directly.  Each interaction inserts two directed edges (``interact``
    plus its reverse twin); for an inserted edge ``(h, t)`` where ``h``
    previously had out-degree ``d``, the estimate mass already pushed
    through ``h`` (``p(h) = alpha * m``, so ``m = p(h) / alpha`` units
    were pushed) was spread over ``d`` out-edges when it should now
    cover ``d + 1``.  Folding the correction into the push state gives,
    per score row (Zhang, Lofgren & Goel, KDD 2016):

    * ``d > 0``:  ``p(h) += p(h) / d``, ``r(h) -= p(h) / (alpha * d)``,
      ``r(t) += (1 - alpha) * p(h) / (alpha * d)``
    * ``d == 0`` (a dangling head gains its first edge): the absorbed
      mass re-emerges at the tail, ``r(t) += (1 - alpha) * p(h) / alpha``

    applied sequentially per inserted edge with running degrees, so the
    invariant holds exactly on each intermediate graph.  The head
    adjustment can leave ``r(h)`` *negative*; the resumed sweep drains
    ``|r| > epsilon * outdeg`` so the final error bound is two-sided:
    every score is within ``epsilon * outdeg(v)`` of the true PPR on the
    updated graph (same contract as a from-scratch push).

    Only the score rows a write can move are worked on: those with a
    non-zero estimate at an inserted head, and those holding a stored
    residual above its new threshold.  Every other row is carried
    bitwise, so the cost follows the rows the write reaches and the
    residual it displaces, not the number of users (the
    ``ppr.incremental_vs_scratch`` benchmark gates the push work).

    Parameters
    ----------
    ckg:
        Graph the ``scores`` were computed on.
    scores:
        Must have been computed with ``keep_residuals=True``.
    new_interactions:
        ``(user, item)`` pairs to append; duplicates of existing
        interactions are rejected by
        :meth:`~repro.graph.ckg.CollaborativeKG.add_interactions`.
    chunk_users:
        Rows per part of an in-RAM store, which bounds the rows densified
        at once.  Ignored for sharded scores, whose shards are the parts.

    Either store is maintained by the same loop over
    ``scores.parts(chunk_users)``.  In each part, one vectorized scan of
    the stored entries finds the movable rows; they are densified,
    corrected, re-swept and re-encoded, then spliced into the part, and
    a part without one is carried as it is.  Rows are independent in
    the correction and the sweep, so every array equals what densifying
    and re-encoding whole parts gives.  ``scores.rewrite`` then stacks
    the parts (in RAM) or writes only the moved ones as new shard files
    (sharded), so the input store is never mutated and the result
    shares no array with it.  A part's ``residual`` total is restated
    as the absolute sum of its stored residual rows.
    """
    if not scores.has_residuals:
        raise ValueError(
            "incremental_push requires scores computed with "
            "keep_residuals=True — residual rows were not stored")
    if scores.num_nodes != ckg.num_nodes:
        raise ValueError(
            f"scores cover {scores.num_nodes} nodes but the graph has "
            f"{ckg.num_nodes} — they belong to different graphs")
    if chunk_users < 1:
        raise ValueError(f"chunk_users must be >= 1, got {chunk_users}")
    alpha = float(scores.alpha)
    epsilon = float(scores.epsilon)

    pairs = [(int(u), int(i)) for u, i in new_interactions]
    if not pairs:
        raise ValueError("new_interactions must be non-empty")

    with telemetry.span("ppr.incremental_push"):
        new_ckg = ckg.add_interactions(pairs)
        num_nodes = ckg.num_nodes
        ins_heads, ins_tails, deg_at = _delta_edges(ckg, pairs)
        is_head = np.zeros(num_nodes, dtype=bool)
        is_head[ins_heads] = True
        new_degrees = np.diff(new_ckg.indptr)
        inv_degrees = (1.0 - alpha) / np.maximum(new_degrees, 1)
        thresholds = epsilon * new_degrees.astype(np.float64)
        sweep_ops = []
        densified = []
        changed = [np.empty(0, dtype=np.int64)]

        def maintained():
            # A generator, so a sharded store writes each part as it
            # arrives and holds one shard in memory at a time.
            for part in scores.parts(chunk_users):
                rows = _movable_rows(part, is_head, thresholds)
                if rows.size:
                    densified.append(rows.size)
                    # a whole part is densified as it lies, without a
                    # gather, and replaced by its re-encoded block
                    whole = rows.size == part.num_rows
                    subset = None if whole else rows
                    estimate = _to_dense(part.indptr, part.node_ids,
                                         part.values, num_nodes, subset)
                    residual = _to_dense(part.res_indptr, part.res_node_ids,
                                         part.res_values, num_nodes, subset)
                    ops, touched = _apply_delta_chunk(
                        new_ckg, estimate, residual, ins_heads, ins_tails,
                        deg_at, alpha, thresholds, new_degrees, inv_degrees)
                    sweep_ops.append(ops)
                    changed.append(part.users[rows[touched]])
                    block = _encode_chunk(part.users[rows], estimate,
                                          residual, 0.0, alpha, epsilon)
                    part = block if whole else _splice(part, rows, block)
                part.residual = float(
                    np.abs(part.res_values).sum(dtype=np.float64))
                yield part, bool(rows.size)

        new_scores = scores.rewrite(maintained())

        # One op per applied per-edge adjustment, plus the resumed sweeps;
        # recorded under both counters so `bench compare` can gate the
        # incremental arm's share of the total push work.
        push_ops = sum(sweep_ops) + int(ins_heads.size)
        telemetry.counter("ppr.push_ops", push_ops)
        telemetry.counter("ppr.incremental_pushes", push_ops)
        telemetry.counter("ppr.incremental_rows", sum(densified))
        telemetry.gauge("ppr.residual_mass", new_scores.residual)
        telemetry.gauge("ppr.score_bytes", new_scores.nbytes)

    return IncrementalPushResult(
        ckg=new_ckg, scores=new_scores,
        changed_users=np.concatenate(changed), push_ops=push_ops)


def sparsify_scores(scores: np.ndarray, users: Sequence[int],
                    top_m: int = DEFAULT_TOP_M,
                    residual: float = 0.0) -> SparsePPRScores:
    """Truncate a dense ``(num_users, num_nodes)`` matrix to top-M CSR.

    Bridges the power-iteration backend into the sparse storage path —
    used by the benchmarks for apples-to-apples parity checks and by
    callers that want power-iteration accuracy with push-style memory.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError("scores must be 2-D (users x nodes)")
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    user_array = np.asarray(list(users), dtype=np.int64)
    if user_array.size != scores.shape[0]:
        raise ValueError("one users entry per score row required")
    indptr, node_ids, values = _to_csr(scores, top_m)
    return SparsePPRScores(users=user_array, num_nodes=scores.shape[1],
                           indptr=indptr, node_ids=node_ids, values=values,
                           residual=residual)


def concat_sparse_scores(parts: Iterable[SparsePPRScores]) -> SparsePPRScores:
    """Stack per-chunk score structures row-wise, in the given order.

    The inverse of chunking a user population for fan-out: feeding the
    per-chunk outputs of :func:`forward_push_batch` back through this in
    chunk order yields arrays bitwise-identical to a single serial call
    over the whole population (the solver processes chunks
    independently, so the concatenated CSR arrays — and the residual
    accumulated in the same float order — coincide exactly).  The
    solver parameters come from the first part; residual rows are kept
    when every part has them.  The result is always a copy, even of a
    single part.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("parts must be non-empty")
    num_nodes = parts[0].num_nodes
    if any(part.num_nodes != num_nodes for part in parts):
        raise ValueError("parts disagree on num_nodes")
    residual = 0.0
    for part in parts:
        residual += part.residual
    groups = [CSR_FIELDS]
    if all(part.has_residuals for part in parts):
        groups.append(RES_FIELDS)
    arrays = {}
    for indptr, node_ids, values in groups:
        lengths = np.concatenate([np.diff(getattr(part, indptr))
                                  for part in parts])
        arrays[indptr] = np.concatenate([[0], np.cumsum(lengths)])
        arrays[node_ids] = np.concatenate([getattr(part, node_ids)
                                           for part in parts])
        arrays[values] = np.concatenate([getattr(part, values)
                                         for part in parts])
    return SparsePPRScores(
        users=np.concatenate([part.users for part in parts]),
        num_nodes=num_nodes, residual=residual, alpha=parts[0].alpha,
        epsilon=parts[0].epsilon, **arrays)


#: either PPR score backend, as accepted by the computation-graph pruner
PPRScoreLike = Union[np.ndarray, SparsePPRScores]

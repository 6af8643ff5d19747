"""Sharded, memory-mapped PPR score storage.

The in-RAM :class:`~repro.ppr.SparsePPRScores` concatenates every
user's CSR row into one set of arrays — O(total nnz) resident memory,
the hard ceiling on serving millions of users.  This module keeps the
same logical structure but splits it into **per-chunk shards on disk**:

* :class:`ShardWriter` receives one :class:`SparsePPRScores` per solver
  chunk (the existing ``ppr_chunk_users`` boundaries) and writes each as
  a set of raw ``.npy`` files — CSR ``indptr`` / ``node_ids`` /
  ``values`` plus the residual CSR when the solve kept residuals —
  described by a single ``manifest.json``.
* :class:`ShardedPPRScores` serves the :class:`~repro.storage.ScoreStore`
  read interface straight off ``np.load(..., mmap_mode="r")`` handles,
  keeping at most ``max_open`` shards open in an LRU
  (``storage.shard_hits`` / ``storage.shard_misses`` telemetry).  Reads
  are **bitwise-identical** to the in-RAM backend: the shard files hold
  the exact float32/int64 arrays the RAM structure would.
* :func:`incremental_push_sharded` maintains the store after new
  interactions with *targeted shard invalidation*: shards whose rows the
  delta never touched are reused by reference in the next manifest
  version (``storage.shards_reused``); touched shards are rewritten
  (``storage.shards_rewritten``).

Pickling a :class:`ShardedPPRScores` ships only the directory path and
settings — a spawn-started worker reopens the shards by path instead of
inheriting (or copying) the arrays.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..ppr.push import (IncrementalPushResult, SparsePPRScores,
                        _apply_delta_chunk, _delta_edges)
from .store import ScoreStore

__all__ = ["ShardWriter", "ShardedPPRScores", "incremental_push_sharded",
           "MANIFEST_NAME", "DEFAULT_MAX_OPEN"]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-ppr-shards"
MANIFEST_FORMAT_VERSION = 1

#: LRU bound on simultaneously open (mmap'd) shards
DEFAULT_MAX_OPEN = 8

_CSR_PARTS = ("indptr", "node_ids", "values")
_RES_PARTS = ("res_indptr", "res_node_ids", "res_values")


def _atomic_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _shard_files(index: int, version: int,
                 with_residuals: bool) -> Dict[str, str]:
    prefix = f"shard_{index:05d}_v{version}"
    parts = _CSR_PARTS + (_RES_PARTS if with_residuals else ())
    return {part: f"{prefix}.{part}.npy" for part in parts}


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------

class ShardWriter:
    """Stream per-chunk score structures to disk, one shard per chunk.

    Usage: construct over an empty (or fresh) directory, ``append`` the
    chunk outputs of the solver **in user order**, then ``finalize`` to
    write the manifest and get the readable :class:`ShardedPPRScores`.
    The writer never holds more than one chunk's arrays — peak RAM is
    one shard, regardless of the population size.
    """

    def __init__(self, directory: str, num_nodes: int,
                 keep_residuals: bool = False, overwrite: bool = False):
        self.directory = directory
        self.num_nodes = int(num_nodes)
        self.keep_residuals = bool(keep_residuals)
        os.makedirs(directory, exist_ok=True)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(manifest_path) and not overwrite:
            raise FileExistsError(
                f"{manifest_path} already holds a shard manifest; pass "
                "overwrite=True (or point the writer at a fresh directory)")
        self._entries: List[dict] = []
        self._user_chunks: List[np.ndarray] = []
        self._residual = 0.0
        self._finalized = False

    def append(self, part: SparsePPRScores) -> None:
        """Write one solver chunk as the next shard."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        if part.num_nodes != self.num_nodes:
            raise ValueError(
                f"chunk covers {part.num_nodes} nodes, writer expects "
                f"{self.num_nodes}")
        if part.has_residuals != self.keep_residuals:
            raise ValueError(
                "chunk residual layout disagrees with the writer "
                f"(keep_residuals={self.keep_residuals})")
        index = len(self._entries)
        row_start = sum(len(users) for users in self._user_chunks)
        files = _shard_files(index, 0, self.keep_residuals)
        np.save(os.path.join(self.directory, files["indptr"]), part.indptr)
        np.save(os.path.join(self.directory, files["node_ids"]),
                part.node_ids)
        np.save(os.path.join(self.directory, files["values"]), part.values)
        entry = {
            "row_start": int(row_start),
            "row_stop": int(row_start + part.num_rows),
            "nnz": int(part.nnz),
            "res_nnz": None,
            "residual": float(part.residual),
            "files": files,
        }
        if self.keep_residuals:
            np.save(os.path.join(self.directory, files["res_indptr"]),
                    part.res_indptr)
            np.save(os.path.join(self.directory, files["res_node_ids"]),
                    part.res_node_ids)
            np.save(os.path.join(self.directory, files["res_values"]),
                    part.res_values)
            entry["res_nnz"] = int(part.res_node_ids.size)
        self._entries.append(entry)
        self._user_chunks.append(np.asarray(part.users, dtype=np.int64))
        self._residual += float(part.residual)
        telemetry.counter("storage.shards_written")

    def finalize(self, alpha: Optional[float] = None,
                 epsilon: Optional[float] = None,
                 max_open: Optional[int] = None) -> "ShardedPPRScores":
        """Write ``users.npy`` + the manifest; return the readable store."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        if not self._entries:
            raise ValueError("no shards were appended")
        self._finalized = True
        users = np.concatenate(self._user_chunks)
        np.save(os.path.join(self.directory, "users.npy"), users)
        manifest = {
            "format": MANIFEST_FORMAT,
            "format_version": MANIFEST_FORMAT_VERSION,
            "version": 0,
            "num_rows": int(users.size),
            "num_nodes": self.num_nodes,
            "alpha": None if alpha is None else float(alpha),
            "epsilon": None if epsilon is None else float(epsilon),
            "residual": float(self._residual),
            "has_residuals": self.keep_residuals,
            "users_file": "users.npy",
            "shards": self._entries,
        }
        _atomic_json(os.path.join(self.directory, MANIFEST_NAME), manifest)
        store = ShardedPPRScores(self.directory, max_open=max_open)
        telemetry.gauge("storage.shard_bytes", store.nbytes)
        return store


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------

class _ShardHandle:
    """One open shard: small indptr in RAM, data arrays memory-mapped."""

    __slots__ = ("indptr", "node_ids", "values", "res_indptr",
                 "res_node_ids", "res_values", "keys")

    def __init__(self, directory: str, entry: dict, has_residuals: bool):
        files = entry["files"]
        path = lambda part: os.path.join(directory, files[part])  # noqa: E731
        self.indptr = np.load(path("indptr"))
        self.node_ids = np.load(path("node_ids"), mmap_mode="r")
        self.values = np.load(path("values"), mmap_mode="r")
        if has_residuals:
            self.res_indptr = np.load(path("res_indptr"))
            self.res_node_ids = np.load(path("res_node_ids"), mmap_mode="r")
            self.res_values = np.load(path("res_values"), mmap_mode="r")
        else:
            self.res_indptr = self.res_node_ids = self.res_values = None
        #: composite lookup keys, computed lazily on first lookup —
        #: RAM usage is bounded by the LRU (evicted with the handle)
        self.keys: Optional[np.ndarray] = None

    def lookup_keys(self, num_nodes: int) -> np.ndarray:
        if self.keys is None:
            rows = np.repeat(
                np.arange(self.indptr.size - 1, dtype=np.int64),
                np.diff(self.indptr))
            self.keys = rows * np.int64(num_nodes) + self.node_ids[:]
        return self.keys


class ShardedPPRScores(ScoreStore):
    """Mmap-backed PPR scores over the shard layout of :class:`ShardWriter`.

    The logical structure (row ``k`` = user ``users[k]``'s sorted CSR
    entries) is identical to :class:`~repro.ppr.SparsePPRScores`; only
    the residency differs.  ``lookup`` / ``select`` / ``dense_columns``
    / ``for_user`` return bitwise-identical values.  ``select`` realizes
    the requested rows as an in-RAM :class:`SparsePPRScores`, so every
    downstream consumer (pruner, model, server) is untouched.

    At most ``max_open`` shards are open at once; access beyond the
    bound evicts the least-recently-used handle
    (``storage.shard_hits`` / ``storage.shard_misses`` counters,
    ``storage.open_shards`` gauge).
    """

    def __init__(self, directory: str, max_open: Optional[int] = None):
        self.directory = directory
        self.max_open = DEFAULT_MAX_OPEN if max_open is None \
            else max(1, int(max_open))
        self._load_manifest()

    def _load_manifest(self) -> None:
        path = os.path.join(self.directory, MANIFEST_NAME)
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"{path} is not a {MANIFEST_FORMAT} manifest")
        if manifest.get("format_version") != MANIFEST_FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard manifest format_version "
                f"{manifest.get('format_version')!r}")
        self.manifest = manifest
        self.num_nodes = int(manifest["num_nodes"])
        self.residual = float(manifest["residual"])
        self.alpha = manifest["alpha"]
        self.epsilon = manifest["epsilon"]
        self.users = np.load(
            os.path.join(self.directory, manifest["users_file"]))
        self._shards: List[dict] = manifest["shards"]
        self._row_starts = np.asarray(
            [entry["row_start"] for entry in self._shards], dtype=np.int64)
        self._user_order = np.argsort(self.users, kind="stable")
        self._users_sorted = self.users[self._user_order]
        self._handles: "OrderedDict[int, _ShardHandle]" = OrderedDict()

    # -- pickling: ship the path, reopen shards in the receiving process
    def __getstate__(self):
        return {"directory": self.directory, "max_open": self.max_open}

    def __setstate__(self, state):
        self.directory = state["directory"]
        self.max_open = state["max_open"]
        self._load_manifest()

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self.users.size)

    @property
    def nnz(self) -> int:
        return int(sum(entry["nnz"] for entry in self._shards))

    @property
    def nbytes(self) -> int:
        """On-disk bytes across all shard files (plus the users array)."""
        total = int(self.users.nbytes)
        for entry in self._shards:
            rows = entry["row_stop"] - entry["row_start"]
            total += (rows + 1) * 8 + entry["nnz"] * 12
            if entry["res_nnz"] is not None:
                total += (rows + 1) * 8 + entry["res_nnz"] * 12
        return total

    @property
    def has_residuals(self) -> bool:
        return bool(self.manifest["has_residuals"])

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def open_shard_indices(self) -> List[int]:
        """Currently open shards, least-recently-used first (test hook)."""
        return list(self._handles)

    # ------------------------------------------------------------------
    def _handle(self, index: int) -> _ShardHandle:
        handle = self._handles.get(index)
        if handle is not None:
            self._handles.move_to_end(index)
            telemetry.counter("storage.shard_hits")
            return handle
        telemetry.counter("storage.shard_misses")
        handle = _ShardHandle(self.directory, self._shards[index],
                              self.has_residuals)
        self._handles[index] = handle
        while len(self._handles) > self.max_open:
            self._handles.popitem(last=False)
        telemetry.gauge("storage.open_shards", len(self._handles))
        return handle

    def _shard_of_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._row_starts, rows, side="right") - 1

    def _rows_of(self, users: Sequence[int]) -> np.ndarray:
        query = np.asarray([int(u) for u in users], dtype=np.int64)
        pos = np.searchsorted(self._users_sorted, query)
        pos_clipped = np.minimum(pos, self._users_sorted.size - 1)
        found = (self._users_sorted.size > 0) \
            & (self._users_sorted[pos_clipped] == query)
        if not np.all(found):
            missing = sorted({int(u) for u in query[~found]})
            raise KeyError(
                f"no PPR scores computed for user(s) {missing}: "
                f"structure holds {self.num_rows} rows")
        return self._user_order[pos_clipped]

    def has_user(self, user: int) -> bool:
        pos = np.searchsorted(self._users_sorted, int(user))
        return bool(pos < self._users_sorted.size
                    and self._users_sorted[pos] == int(user))

    def _row_slice(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """One row's ``(node_ids, values)``, read from its shard."""
        index = int(self._shard_of_rows(np.asarray([row]))[0])
        handle = self._handle(index)
        local = row - self._shards[index]["row_start"]
        lo, hi = handle.indptr[local], handle.indptr[local + 1]
        return np.asarray(handle.node_ids[lo:hi]), \
            np.asarray(handle.values[lo:hi])

    # ------------------------------------------------------------------
    # ScoreStore reads (bitwise-identical to SparsePPRScores)
    # ------------------------------------------------------------------
    def lookup(self, slots: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Scores for (row-slot, node) query pairs; missing entries are 0.

        Same contract (and bounds-check errors) as
        :meth:`~repro.ppr.SparsePPRScores.lookup`; queries are grouped
        by shard so each touched shard is opened once per call.
        """
        slots = np.asarray(slots, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        if slots.size != nodes.size:
            raise ValueError(
                f"slots and nodes must align element-wise, got "
                f"{slots.size} slots and {nodes.size} nodes")
        out = np.zeros(slots.size, dtype=np.float32)
        if slots.size == 0:
            return out
        bad_slots = (slots < 0) | (slots >= self.num_rows)
        if bad_slots.any():
            offender = int(slots[bad_slots][0])
            raise IndexError(
                f"slot {offender} out of range for "
                f"{self.num_rows} score rows")
        bad_nodes = (nodes < 0) | (nodes >= self.num_nodes)
        if bad_nodes.any():
            offender = int(nodes[bad_nodes][0])
            raise IndexError(
                f"node {offender} out of range for "
                f"num_nodes={self.num_nodes}")
        shard_ids = self._shard_of_rows(slots)
        for index in np.unique(shard_ids):
            mask = shard_ids == index
            handle = self._handle(int(index))
            keys = handle.lookup_keys(self.num_nodes)
            if keys.size == 0:
                continue
            local = slots[mask] - self._shards[int(index)]["row_start"]
            wanted = local * np.int64(self.num_nodes) + nodes[mask]
            positions = np.searchsorted(keys, wanted)
            positions = np.minimum(positions, keys.size - 1)
            found = keys[positions] == wanted
            values = np.zeros(int(mask.sum()), dtype=np.float32)
            values[found] = handle.values[positions[found]]
            out[mask] = values
        return out

    def dense_columns(self, nodes: np.ndarray) -> np.ndarray:
        """Dense ``(num_rows, len(nodes))`` gather of selected columns."""
        nodes = np.asarray(nodes, dtype=np.int64)
        slots = np.repeat(np.arange(self.num_rows, dtype=np.int64),
                          nodes.size)
        return self.lookup(slots, np.tile(nodes, self.num_rows)) \
            .reshape(self.num_rows, nodes.size)

    def for_user(self, user: int) -> np.ndarray:
        """Densified score vector over all nodes for ``user``."""
        if not self.has_user(user):
            raise KeyError(f"no PPR scores computed for user {user}")
        row = int(self._rows_of([user])[0])
        node_ids, values = self._row_slice(row)
        dense = np.zeros(self.num_nodes, dtype=np.float32)
        dense[node_ids] = values
        return dense

    def residual_for_user(self, user: int) -> np.ndarray:
        """Densified residual vector for ``user`` (requires residuals)."""
        if not self.has_residuals:
            raise ValueError(
                "scores were computed without keep_residuals=True")
        if not self.has_user(user):
            raise KeyError(f"no PPR scores computed for user {user}")
        row = int(self._rows_of([user])[0])
        index = int(self._shard_of_rows(np.asarray([row]))[0])
        handle = self._handle(index)
        local = row - self._shards[index]["row_start"]
        lo, hi = handle.res_indptr[local], handle.res_indptr[local + 1]
        dense = np.zeros(self.num_nodes, dtype=np.float32)
        dense[np.asarray(handle.res_node_ids[lo:hi])] = \
            np.asarray(handle.res_values[lo:hi])
        return dense

    def select(self, users: Sequence[int]) -> SparsePPRScores:
        """Realize the rows for ``users`` as an in-RAM structure.

        Same contract as :meth:`~repro.ppr.SparsePPRScores.select` —
        rows realign to the input order, maintenance metadata stays with
        the store — so the pruner and model see exactly what the RAM
        backend would hand them.
        """
        rows = self._rows_of(users)
        node_chunks: List[np.ndarray] = []
        value_chunks: List[np.ndarray] = []
        lengths = np.empty(rows.size, dtype=np.int64)
        for position, row in enumerate(rows.tolist()):
            node_ids, values = self._row_slice(row)
            node_chunks.append(node_ids)
            value_chunks.append(values)
            lengths[position] = node_ids.size
        return SparsePPRScores(
            users=self.users[rows], num_nodes=self.num_nodes,
            indptr=np.concatenate([[0], np.cumsum(lengths)]),
            node_ids=(np.concatenate(node_chunks) if node_chunks
                      else np.empty(0, dtype=np.int64)),
            values=(np.concatenate(value_chunks) if value_chunks
                    else np.empty(0, dtype=np.float32)),
            residual=self.residual)

    def toarray(self) -> np.ndarray:
        """Full dense matrix (test/debug helper; densifies everything)."""
        return self.select(self.users.tolist()).toarray()

    def normalize_by_degree(self, degrees: np.ndarray) -> None:
        """Divide stored values by ``max(deg(node), 1)``, shard by shard.

        The sharded counterpart of the in-RAM in-place division: each
        shard's value file is rewritten (same float32 arithmetic, so the
        stored entries stay bitwise-identical to the RAM backend's) and
        the manifest is bumped one version.  Open handles are dropped so
        subsequent reads see the new values.
        """
        degrees = np.maximum(np.asarray(degrees, dtype=np.float64), 1.0)
        version = int(self.manifest["version"]) + 1
        stale: List[str] = []
        for index, entry in enumerate(self._shards):
            handle = _ShardHandle(self.directory, entry, self.has_residuals)
            values = np.array(handle.values)  # writable copy of the mmap
            node_ids = np.asarray(handle.node_ids)
            values /= degrees[node_ids].astype(np.float32)
            new_name = f"shard_{index:05d}_v{version}.values.npy"
            np.save(os.path.join(self.directory, new_name), values)
            stale.append(entry["files"]["values"])
            entry["files"]["values"] = new_name
            telemetry.counter("storage.shards_rewritten")
        self.manifest["version"] = version
        _atomic_json(os.path.join(self.directory, MANIFEST_NAME),
                     self.manifest)
        for name in stale:
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                pass
        self._handles.clear()


# ----------------------------------------------------------------------
# Incremental maintenance with targeted shard invalidation
# ----------------------------------------------------------------------

def incremental_push_sharded(ckg, scores: ShardedPPRScores,
                             new_interactions: Sequence[Tuple[int, int]]
                             ) -> IncrementalPushResult:
    """Maintain a sharded store after new interactions (see
    :func:`repro.ppr.incremental_push`, which dispatches here).

    The delta math is the shared chunk kernel of the in-RAM path
    (:func:`repro.ppr.push._apply_delta_chunk`), applied shard by shard
    — shard boundaries are the maintenance chunks.  A shard none of
    whose rows moved is carried into the new manifest untouched
    (``storage.shards_reused``); every other shard is rewritten under
    the bumped version (``storage.shards_rewritten``) and its old files
    are unlinked once the new manifest is on disk.  The returned store
    is a fresh object over the same directory — callers swap it in, and
    concurrent readers of the old object keep their mmap'd data alive.
    """
    if not scores.has_residuals:
        raise ValueError(
            "incremental_push requires scores computed with "
            "keep_residuals=True — residual rows were not stored")
    if scores.num_nodes != ckg.num_nodes:
        raise ValueError(
            f"scores cover {scores.num_nodes} nodes but the graph has "
            f"{ckg.num_nodes} — they belong to different graphs")
    alpha = float(scores.alpha)
    epsilon = float(scores.epsilon)
    pairs = [(int(u), int(i)) for u, i in new_interactions]
    if not pairs:
        raise ValueError("new_interactions must be non-empty")

    with telemetry.span("ppr.incremental_push"):
        new_ckg = ckg.add_interactions(pairs)
        num_nodes = ckg.num_nodes
        ins_heads, ins_tails, deg_at = _delta_edges(ckg, pairs)
        new_degrees = np.diff(new_ckg.indptr)
        inv_degrees = (1.0 - alpha) / np.maximum(new_degrees, 1)
        thresholds = epsilon * new_degrees.astype(np.float64)

        version = int(scores.manifest["version"]) + 1
        new_entries: List[dict] = []
        changed_chunks: List[np.ndarray] = []
        stale_files: List[str] = []
        sweep_ops = 0
        total_residual = 0.0
        reused = rewritten = 0

        for index, entry in enumerate(scores._shards):
            handle = _ShardHandle(scores.directory, entry, True)
            row_start, row_stop = entry["row_start"], entry["row_stop"]
            batch = row_stop - row_start
            estimate = np.zeros((batch, num_nodes))
            residual = np.zeros((batch, num_nodes))
            for local in range(batch):
                lo, hi = handle.indptr[local], handle.indptr[local + 1]
                estimate[local, handle.node_ids[lo:hi]] = \
                    handle.values[lo:hi]
                lo, hi = handle.res_indptr[local], \
                    handle.res_indptr[local + 1]
                residual[local, handle.res_node_ids[lo:hi]] = \
                    handle.res_values[lo:hi]

            ops, touched = _apply_delta_chunk(
                new_ckg, estimate, residual, ins_heads, ins_tails, deg_at,
                alpha, thresholds, new_degrees, inv_degrees)
            sweep_ops += ops
            shard_residual = float(np.abs(residual).sum())
            total_residual += shard_residual
            changed_chunks.append(scores.users[row_start:row_stop][touched])

            if not touched.any():
                new_entries.append(entry)
                reused += 1
                continue
            rewritten += 1
            node_chunks, value_chunks = [], []
            res_node_chunks, res_value_chunks = [], []
            lengths = np.empty(batch, dtype=np.int64)
            res_lengths = np.empty(batch, dtype=np.int64)
            for local in range(batch):
                kept = np.flatnonzero(estimate[local])
                node_chunks.append(kept)
                value_chunks.append(
                    estimate[local, kept].astype(np.float32))
                lengths[local] = kept.size
                res_kept = np.flatnonzero(residual[local])
                res_node_chunks.append(res_kept)
                res_value_chunks.append(
                    residual[local, res_kept].astype(np.float32))
                res_lengths[local] = res_kept.size
            files = _shard_files(index, version, True)
            arrays = {
                "indptr": np.concatenate([[0], np.cumsum(lengths)]),
                "node_ids": (np.concatenate(node_chunks) if node_chunks
                             else np.empty(0, dtype=np.int64)),
                "values": (np.concatenate(value_chunks) if value_chunks
                           else np.empty(0, dtype=np.float32)),
                "res_indptr": np.concatenate([[0], np.cumsum(res_lengths)]),
                "res_node_ids": (np.concatenate(res_node_chunks)
                                 if res_node_chunks
                                 else np.empty(0, dtype=np.int64)),
                "res_values": (np.concatenate(res_value_chunks)
                               if res_value_chunks
                               else np.empty(0, dtype=np.float32)),
            }
            for part, name in files.items():
                np.save(os.path.join(scores.directory, name), arrays[part])
            stale_files.extend(entry["files"].values())
            new_entries.append({
                "row_start": row_start, "row_stop": row_stop,
                "nnz": int(arrays["node_ids"].size),
                "res_nnz": int(arrays["res_node_ids"].size),
                "residual": shard_residual,
                "files": files,
            })

        manifest = dict(scores.manifest)
        manifest["version"] = version
        manifest["residual"] = total_residual
        manifest["shards"] = new_entries
        _atomic_json(os.path.join(scores.directory, MANIFEST_NAME), manifest)
        # Superseded files are unlinked only now; readers of the old
        # store object keep them alive through their mmap handles.
        for name in stale_files:
            try:
                os.unlink(os.path.join(scores.directory, name))
            except OSError:
                pass

        new_scores = ShardedPPRScores(scores.directory,
                                      max_open=scores.max_open)
        push_ops = sweep_ops + int(ins_heads.size)
        telemetry.counter("ppr.push_ops", push_ops)
        telemetry.counter("ppr.incremental_pushes", push_ops)
        telemetry.counter("storage.shards_reused", reused)
        telemetry.counter("storage.shards_rewritten", rewritten)
        telemetry.gauge("ppr.residual_mass", total_residual)
        telemetry.gauge("ppr.score_bytes", new_scores.nbytes)
        telemetry.gauge("storage.shard_bytes", new_scores.nbytes)

    changed_users = (np.concatenate(changed_chunks) if changed_chunks
                     else np.empty(0, dtype=np.int64))
    return IncrementalPushResult(
        ckg=new_ckg, scores=new_scores,
        changed_users=changed_users, push_ops=push_ops)

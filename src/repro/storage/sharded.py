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
* :class:`ShardedPPRScores` opens each shard as a
  :class:`SparsePPRScores` over ``np.load(..., mmap_mode="r")`` arrays
  and delegates reads to it, keeping at most ``max_open`` shards open
  in an LRU (``storage.shard_hits`` / ``storage.shard_misses``
  telemetry).  Reads are **bitwise-identical** to the in-RAM backend:
  the shard files hold the exact float32/int64 arrays the RAM structure
  would.
* :meth:`ShardedPPRScores.rewrite` is where
  :func:`~repro.ppr.incremental_push` ends: shards whose rows moved are
  written under the next manifest version (``storage.shards_rewritten``);
  the rest are carried by reference (``storage.shards_reused``).  Nothing
  else writes a store after its solve: the pruner degree-normalizes at
  lookup.

Pickling a :class:`ShardedPPRScores` ships only the directory path and
settings — a spawn-started worker reopens the shards by path instead of
inheriting (or copying) the arrays.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..ppr.push import CSR_FIELDS, RES_FIELDS, SparsePPRScores, check_lookup

__all__ = ["ShardWriter", "ShardedPPRScores", "MANIFEST_NAME",
           "DEFAULT_MAX_OPEN"]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-ppr-shards"
MANIFEST_FORMAT_VERSION = 1

#: LRU bound on simultaneously open (mmap'd) shards
DEFAULT_MAX_OPEN = 8


def _atomic_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _unlink_quietly(directory: str, names: Iterable[str]) -> None:
    """Remove superseded files; one that will not go stays an orphan."""
    for name in names:
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            pass


def _write_shard(directory: str, index: int, version: int,
                 part: SparsePPRScores, row_start: int) -> dict:
    """Save ``part`` as shard ``index`` at ``version``; return its entry."""
    prefix = f"shard_{index:05d}_v{version}"
    names = CSR_FIELDS + (RES_FIELDS if part.has_residuals else ())
    files: Dict[str, str] = {name: f"{prefix}.{name}.npy" for name in names}
    for name, filename in files.items():
        np.save(os.path.join(directory, filename), getattr(part, name))
    return {
        "row_start": int(row_start),
        "row_stop": int(row_start + part.num_rows),
        "nnz": int(part.nnz),
        "res_nnz": (int(part.res_node_ids.size) if part.has_residuals
                    else None),
        "residual": float(part.residual),
        "files": files,
    }


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

    With ``overwrite=True`` over an existing store, the solve is that
    store's next version: shards and the users file are written under
    new ``_v{version}`` names, and the files the previous manifest names
    are unlinked only after the new manifest replaced it, as in
    :meth:`ShardedPPRScores.rewrite`.  A failure before the replace
    leaves the previous version readable.
    """

    def __init__(self, directory: str, num_nodes: int,
                 keep_residuals: bool = False, overwrite: bool = False):
        self.directory = directory
        self.num_nodes = int(num_nodes)
        self.keep_residuals = bool(keep_residuals)
        os.makedirs(directory, exist_ok=True)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        self._version = 0
        self._stale: List[str] = []
        if os.path.exists(manifest_path):
            if not overwrite:
                raise FileExistsError(
                    f"{manifest_path} already holds a shard manifest; pass "
                    "overwrite=True (or point the writer at a fresh "
                    "directory)")
            with open(manifest_path, "r", encoding="utf-8") as handle:
                previous = json.load(handle)
            self._version = int(previous["version"]) + 1
            self._stale = [previous["users_file"]] + [
                name for entry in previous["shards"]
                for name in entry["files"].values()]
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
        row_start = sum(len(users) for users in self._user_chunks)
        self._entries.append(_write_shard(
            self.directory, len(self._entries), self._version, part,
            row_start))
        self._user_chunks.append(np.asarray(part.users, dtype=np.int64))
        self._residual += float(part.residual)
        telemetry.counter("storage.shards_written")

    def finalize(self, alpha: Optional[float] = None,
                 epsilon: Optional[float] = None,
                 max_open: Optional[int] = None) -> "ShardedPPRScores":
        """Write the users file + the manifest, unlink the previous
        version's files, and return the readable store."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        if not self._entries:
            raise ValueError("no shards were appended")
        self._finalized = True
        users = np.concatenate(self._user_chunks)
        users_file = ("users.npy" if self._version == 0
                      else f"users_v{self._version}.npy")
        np.save(os.path.join(self.directory, users_file), users)
        manifest = {
            "format": MANIFEST_FORMAT,
            "format_version": MANIFEST_FORMAT_VERSION,
            "version": self._version,
            "num_rows": int(users.size),
            "num_nodes": self.num_nodes,
            "alpha": None if alpha is None else float(alpha),
            "epsilon": None if epsilon is None else float(epsilon),
            "residual": float(self._residual),
            "has_residuals": self.keep_residuals,
            "users_file": users_file,
            "shards": self._entries,
        }
        _atomic_json(os.path.join(self.directory, MANIFEST_NAME), manifest)
        _unlink_quietly(self.directory, self._stale)
        store = ShardedPPRScores(self.directory, max_open=max_open)
        telemetry.gauge("storage.shard_bytes", store.nbytes)
        return store


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------

class ShardedPPRScores:
    """Mmap-backed PPR scores over the shard layout of :class:`ShardWriter`.

    The logical structure (row ``k`` = user ``users[k]``'s sorted CSR
    entries) is identical to :class:`~repro.ppr.SparsePPRScores`; only
    the residency differs.  Each shard opens as a
    :class:`SparsePPRScores` over its memory-mapped files (``indptr``
    arrays in RAM), and ``lookup`` / ``for_user`` /
    ``residual_for_user`` delegate to it, so they return
    bitwise-identical values.  ``select`` realizes the requested rows as
    an in-RAM :class:`SparsePPRScores`, so every downstream consumer
    (pruner, model, server) is untouched.

    At most ``max_open`` shards are open at once; access beyond the
    bound evicts the least-recently-used one
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
        self._lru: "OrderedDict[int, SparsePPRScores]" = OrderedDict()

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
        return list(self._lru)

    # ------------------------------------------------------------------
    def _open(self, index: int) -> SparsePPRScores:
        """Shard ``index`` as a structure over its files, outside the LRU."""
        entry = self._shards[index]
        arrays = {
            name: np.load(os.path.join(self.directory, filename),
                          mmap_mode=None if name.endswith("indptr") else "r")
            for name, filename in entry["files"].items()}
        return SparsePPRScores(
            users=self.users[entry["row_start"]:entry["row_stop"]],
            num_nodes=self.num_nodes, residual=entry["residual"],
            alpha=self.alpha, epsilon=self.epsilon, **arrays)

    def _shard(self, index: int) -> SparsePPRScores:
        """Shard ``index`` through the LRU of open shards."""
        part = self._lru.get(index)
        if part is not None:
            self._lru.move_to_end(index)
            telemetry.counter("storage.shard_hits")
            return part
        telemetry.counter("storage.shard_misses")
        part = self._lru[index] = self._open(index)
        while len(self._lru) > self.max_open:
            self._lru.popitem(last=False)
        telemetry.gauge("storage.open_shards", len(self._lru))
        return part

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

    def _shard_of_user(self, user: int) -> SparsePPRScores:
        if not self.has_user(user):
            raise KeyError(f"no PPR scores computed for user {user}")
        row = self._rows_of([user])[0]
        return self._shard(int(self._shard_of_rows(row)))

    # ------------------------------------------------------------------
    # Reads (bitwise-identical to SparsePPRScores)
    # ------------------------------------------------------------------
    def lookup(self, slots: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Scores for (row-slot, node) query pairs; missing entries are 0.

        Same contract (and bounds-check errors) as
        :meth:`~repro.ppr.SparsePPRScores.lookup`; queries are grouped
        by shard so each touched shard is opened once per call.
        """
        slots, nodes = check_lookup(slots, nodes, self.num_rows,
                                    self.num_nodes)
        out = np.zeros(slots.size, dtype=np.float32)
        shard_ids = self._shard_of_rows(slots)
        for index in np.unique(shard_ids).tolist():
            mask = shard_ids == index
            local = slots[mask] - self._shards[index]["row_start"]
            out[mask] = self._shard(index).gather(local, nodes[mask])
        return out

    #: only needs ``num_rows`` and ``lookup``
    dense_columns = SparsePPRScores.dense_columns

    def for_user(self, user: int) -> np.ndarray:
        """Densified score vector over all nodes for ``user``."""
        return self._shard_of_user(user).for_user(user)

    def residual_for_user(self, user: int) -> np.ndarray:
        """Densified residual vector for ``user`` (requires residuals)."""
        return self._shard_of_user(user).residual_for_user(user)

    def select(self, users: Sequence[int]) -> SparsePPRScores:
        """Realize the rows for ``users`` as an in-RAM structure.

        Same contract as :meth:`~repro.ppr.SparsePPRScores.select` —
        rows realign to the input order, maintenance metadata stays with
        the store — so the pruner and model see exactly what the RAM
        backend would hand them.
        """
        rows = self._rows_of(users)
        # leading empty chunks fix the dtypes when ``users`` is empty
        node_chunks: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        value_chunks: List[np.ndarray] = [np.empty(0, dtype=np.float32)]
        for row in rows.tolist():
            index = int(self._shard_of_rows(row))
            part = self._shard(index)
            local = row - self._shards[index]["row_start"]
            lo, hi = part.indptr[local], part.indptr[local + 1]
            node_chunks.append(part.node_ids[lo:hi])
            value_chunks.append(part.values[lo:hi])
        lengths = [chunk.size for chunk in node_chunks[1:]]
        return SparsePPRScores(
            users=self.users[rows], num_nodes=self.num_nodes,
            indptr=np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]),
            node_ids=np.concatenate(node_chunks),
            values=np.concatenate(value_chunks), residual=self.residual)

    def toarray(self) -> np.ndarray:
        """Full dense matrix (test/debug helper; densifies everything)."""
        return self.select(self.users.tolist()).toarray()

    # ------------------------------------------------------------------
    # Rewrites
    # ------------------------------------------------------------------
    def parts(self, chunk_users: Optional[int] = None
              ) -> Iterator[SparsePPRScores]:
        """Every shard in row order, opened outside the LRU.

        ``chunk_users`` is accepted for symmetry with
        :meth:`SparsePPRScores.parts` and ignored: the shards are the
        chunks.
        """
        for index in range(self.num_shards):
            yield self._open(index)

    def rewrite(self, parts: Iterable[Tuple[SparsePPRScores, bool]]
                ) -> "ShardedPPRScores":
        """The next manifest version over ``(part, moved)`` pairs, one per
        shard in order, consumed (and written) one at a time.

        A moved part is written as new ``_v{version}`` shard files by the
        helper :meth:`ShardWriter.append` uses; the others keep their
        files.  The manifest is then replaced atomically, and only after
        that are superseded files unlinked, so a failure before the
        replace leaves the previous version readable.  Returns a fresh
        store over the directory.  This object still reads the shards it
        has open, but must not reopen evicted ones: their files may be
        gone.
        """
        version = int(self.manifest["version"]) + 1
        entries: List[dict] = []
        stale: List[str] = []
        residual = 0.0
        rewritten = 0
        for index, (entry, (part, moved)) in enumerate(
                zip(self._shards, parts)):
            if moved:
                rewritten += 1
                stale.extend(entry["files"].values())
                entry = _write_shard(self.directory, index, version, part,
                                     entry["row_start"])
            else:
                # same files; the restated residual keeps the manifest
                # total equal to the sum over its entries
                entry = dict(entry, residual=float(part.residual))
            residual += entry["residual"]
            entries.append(entry)
        manifest = dict(self.manifest, version=version, residual=residual,
                        shards=entries)
        _atomic_json(os.path.join(self.directory, MANIFEST_NAME), manifest)
        _unlink_quietly(self.directory, stale)
        telemetry.counter("storage.shards_rewritten", rewritten)
        telemetry.counter("storage.shards_reused", len(entries) - rewritten)
        store = ShardedPPRScores(self.directory, max_open=self.max_open)
        telemetry.gauge("storage.shard_bytes", store.nbytes)
        return store

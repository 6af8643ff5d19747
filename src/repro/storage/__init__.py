"""Pluggable PPR score storage: in-RAM arrays or mmap'd shards on disk.

See ``docs/storage.md`` for the shard layout, the manifest schema, and
the RAM-vs-mmap tradeoffs.  The short version: ``ram`` (the default) is
today's :class:`~repro.ppr.SparsePPRScores`; ``mmap`` writes the same
CSR structure as per-chunk ``.npy`` shards and serves reads through a
bounded LRU of memory-mapped handles, so precompute and serving scale
past what fits in memory.
"""

from __future__ import annotations

from .sharded import (DEFAULT_MAX_OPEN, MANIFEST_NAME, ShardedPPRScores,
                      ShardWriter)
from .store import (STORE_BACKENDS, STORE_ENV_VAR, resolve_store,
                    resolve_store_dir)

__all__ = [
    "ShardWriter", "ShardedPPRScores", "resolve_store", "resolve_store_dir",
    "STORE_ENV_VAR", "STORE_BACKENDS", "MANIFEST_NAME", "DEFAULT_MAX_OPEN",
]

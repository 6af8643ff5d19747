"""Backend resolution for PPR score storage.

Every PPR score structure in the repo — the in-RAM
:class:`~repro.ppr.SparsePPRScores` and the on-disk
:class:`~repro.storage.ShardedPPRScores`, which opens each of its shards
as a :class:`~repro.ppr.SparsePPRScores` — serves the same reads to the
pruner, the trainer, and the serving layer, with bitwise-identical
values.

Backend selection is a single knob threaded through the stack:
``TrainConfig.ppr_store`` / ``--store {ram,mmap}`` on the CLI, falling
back to ``$REPRO_PPR_STORE`` and finally ``"ram"``.  ``"ram"`` keeps
today's in-memory arrays; ``"mmap"`` writes per-chunk ``.npy`` CSR
shards and serves reads through memory maps (see ``docs/storage.md``).
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

__all__ = ["STORE_ENV_VAR", "STORE_BACKENDS", "resolve_store",
           "resolve_store_dir"]

#: environment fallback for the ``--store`` / ``ppr_store`` knob
STORE_ENV_VAR = "REPRO_PPR_STORE"

STORE_BACKENDS = ("ram", "mmap")


def resolve_store(requested: Optional[str] = None) -> str:
    """Resolve a store backend: explicit value > ``$REPRO_PPR_STORE`` > ram.

    Unknown names raise ``ValueError`` naming the choices, whether they
    came from the caller or the environment.
    """
    value = requested
    source = "ppr_store"
    if value is None or value == "":
        value = os.environ.get(STORE_ENV_VAR, "") or "ram"
        source = STORE_ENV_VAR
    value = str(value).strip().lower()
    if value not in STORE_BACKENDS:
        raise ValueError(
            f"unknown score store {value!r} (from {source}); "
            f"choose one of {STORE_BACKENDS}")
    return value


def resolve_store_dir(requested: Optional[str] = None,
                      prefix: str = "repro_ppr_") -> str:
    """Directory for shard files: the explicit path, or a fresh tempdir.

    An explicit path is created (parents included) if missing and
    returned as-is — the caller owns its lifetime.  ``None`` creates a
    process-unique temporary directory; callers that want it reclaimed
    should arrange cleanup themselves (the trainer attaches a
    ``weakref.finalize``).
    """
    if requested:
        os.makedirs(requested, exist_ok=True)
        return requested
    return tempfile.mkdtemp(prefix=prefix)


"""Multiprocess execution layer for embarrassingly parallel stages.

Per-user work in this pipeline — PPR precompute chunks, user-centric
graph builds, eval scoring batches — is independent by construction,
so it fans out across processes with deterministic,
chunk-order-independent results.  See
``docs/performance.md`` ("Parallel execution") for the worker model,
the determinism guarantees, and the telemetry-merge contract.
"""

from .pool import (DEFAULT_ENV_VAR, chunk_sequence, resolve_workers,
                   run_parallel)

__all__ = ["DEFAULT_ENV_VAR", "chunk_sequence", "resolve_workers",
           "run_parallel"]

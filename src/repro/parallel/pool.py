"""Process-pool fan-out for independent per-user-chunk work.

The paper's efficiency argument (Table VI, Fig. 6) rests on the
independence of per-user subgraphs: PPR precompute chunks, user-centric
graph builds, and all-ranking eval batches never read each other's
state.  :func:`run_parallel` exploits exactly that independence with a
stdlib :class:`~concurrent.futures.ProcessPoolExecutor` — no threads
(the work is NumPy-bound, not I/O-bound), no new dependencies.

Design constraints, in priority order:

1. **Determinism.**  Results are reassembled in *task order*, never
   completion order, so ``run_parallel(fn, tasks)`` returns exactly
   ``[fn(context, t) for t in tasks]`` regardless of worker scheduling.
   Callers that need bitwise-identical output to their serial path must
   make each task's computation self-contained (every integration in
   this repo does — see ``docs/performance.md``).
2. **Exact telemetry.**  Each worker records into its own registry per
   task; the parent merges the per-task snapshots back **in task
   order**, so additive instruments (counters, histogram count/total,
   span counts) are exactly what the serial run would have recorded and
   last-write gauges resolve the same way they do serially.  The bench
   compare gates depend on this.
3. **Zero-overhead serial path.**  ``num_workers <= 1`` (or a single
   task) short-circuits to a plain loop in the parent process — no
   pool, no pickling, no snapshot dance; telemetry flows straight into
   the live registry.
4. **Graceful degradation.**  Any pool failure — unpicklable payloads,
   a worker dying, a platform without usable start methods — logs a
   warning, bumps ``parallel.fallbacks``, and reruns the tasks serially
   in the parent.  Parallelism is an optimization, never a correctness
   dependency.  A task's own exception is not a pool failure: the
   parent re-raises it, without a warning or a serial rerun.

Context transport: on platforms with the ``fork`` start method the
shared context (a CKG, a trained model) is inherited by the workers at
pool creation via a module global — zero pickling, O(1) in context
size.  Under ``spawn`` the context is pickled once per worker through
the pool initializer.  Per-task payloads stay small (index + chunk).
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, TypeVar

import multiprocessing as mp

from .. import telemetry

__all__ = ["DEFAULT_ENV_VAR", "resolve_workers", "chunk_sequence",
           "run_parallel"]

#: environment variable consulted when a caller passes ``None`` workers
DEFAULT_ENV_VAR = "REPRO_NUM_WORKERS"

#: set by :func:`_initializer` inside worker processes so nested fan-out
#: degrades to serial instead of forking grandchildren
_IN_WORKER = False

_T = TypeVar("_T")


def resolve_workers(requested: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value > ``$REPRO_NUM_WORKERS`` > 1.

    ``None`` (and 0) defer to the environment; anything below 1 after
    resolution clamps to 1 (the serial fast path).  Inside a worker
    process the answer is always 1 — nested pools are never created.
    """
    if _IN_WORKER:
        return 1
    if requested is None or requested == 0:
        value = os.environ.get(DEFAULT_ENV_VAR, "")
        try:
            requested = int(value) if value else 1
        except ValueError:
            warnings.warn(f"ignoring non-integer {DEFAULT_ENV_VAR}={value!r}",
                          RuntimeWarning)
            requested = 1
    return max(1, int(requested))


def chunk_sequence(items: Sequence[_T], chunk_size: int) -> List[Sequence[_T]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``.

    The chunk boundaries are the unit of fan-out *and* of telemetry
    attribution, so callers should pick the same boundaries their serial
    path uses (e.g. ``TrainConfig.ppr_chunk_users``) — that is what
    makes per-chunk counters sum to the serial totals exactly.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [items[start:start + chunk_size]
            for start in range(0, len(items), chunk_size)]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: worker state: populated in the parent immediately before pool
#: creation (inherited for free under ``fork``) or shipped through the
#: initializer payload (pickled once per worker under ``spawn``).
_WORKER: dict = {"fn": None, "context": None, "telemetry": False,
                 "events": None}


class _TaskError(Exception):
    """Carries a task's own exception (``args[0]``) back to the parent.

    Raised in the worker, it reaches the parent with the worker's
    traceback attached as ``__cause__``; the parent re-raises the
    original exception instead of treating it as a pool failure.
    """


def _initializer(payload: Optional[dict]) -> None:
    """Per-worker setup: adopt state, mark the process as a worker."""
    global _IN_WORKER
    if payload is not None:        # spawn path; fork inherits _WORKER
        _WORKER.update(payload)
    _IN_WORKER = True
    telemetry.reset()
    # Under fork the worker inherits a *copy* of the parent's event log;
    # drop it — per-task logs are created in _execute and shipped back.
    telemetry.disable_events()


def _execute(index_task):
    """Run one task in a worker; returns (index, result, snapshot,
    event_snapshot, secs), or raises the task's exception as
    :class:`_TaskError`.

    Each task gets a clean registry so its snapshot is attributable to
    it alone — the parent merges snapshots in task order, which keeps
    gauge last-write semantics identical to the serial execution order.
    When the parent was flight-recording (``_WORKER["events"]`` holds
    the ring capacity), the task also records into a fresh
    :class:`~repro.telemetry.events.EventLog` whose snapshot rides back
    alongside the registry snapshot for per-worker lane merging.
    """
    index, task = index_task
    record = _WORKER["telemetry"]
    start = time.perf_counter()
    event_snapshot = None
    if record:
        telemetry.reset()
        capacity = _WORKER.get("events")
        if capacity:
            telemetry.enable_events(capacity)
    try:
        with telemetry.enabled(record):
            result = _WORKER["fn"](_WORKER["context"], task)
    except Exception as error:  # noqa: BLE001 — the task's, not the pool's
        raise _TaskError(error) from error
    if record:
        snapshot = telemetry.get_registry().snapshot()
        log = telemetry.disable_events()
        if log is not None and len(log):
            event_snapshot = log.snapshot()
        telemetry.reset()
    else:
        snapshot = None
    return index, result, snapshot, event_snapshot, time.perf_counter() - start


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def run_parallel(fn: Callable[[Any, Any], Any], tasks: Sequence[Any], *,
                 context: Any = None, num_workers: Optional[int] = None,
                 label: str = "parallel") -> List[Any]:
    """Evaluate ``fn(context, task)`` for every task, results in task order.

    Parameters
    ----------
    fn:
        A **module-level** function (workers import it by reference).
    tasks:
        Independent work items; each must be picklable, as must ``fn``'s
        return value.
    context:
        Shared read-only state handed to every call.  Transported to
        workers by fork inheritance where available (no pickling),
        otherwise pickled once per worker.
    num_workers:
        Process count; ``None`` defers to ``$REPRO_NUM_WORKERS``.
        ``<= 1`` (or a single task) runs serially in the parent with no
        pool overhead.
    label:
        Tag used in fallback warnings.

    Telemetry: the parallel path merges each worker task's snapshot into
    the parent registry (task order), then records ``parallel.workers``
    (gauge), ``parallel.tasks`` (counter) and per-task wall times under
    ``parallel.chunk_seconds`` (histogram).  The serial path records
    nothing extra — it is byte-for-byte the plain loop.
    """
    tasks = list(tasks)
    workers = resolve_workers(num_workers)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(context, task) for task in tasks]
    workers = min(workers, len(tasks))

    try:
        outputs = _run_pool(fn, tasks, context, workers)
    except _TaskError as failure:
        raise failure.args[0] from failure.__cause__
    except Exception as error:  # noqa: BLE001 — any pool/pickling failure
        warnings.warn(
            f"parallel[{label}]: worker pool failed "
            f"({type(error).__name__}: {error}); falling back to serial",
            RuntimeWarning)
        telemetry.counter("parallel.fallbacks")
        return [fn(context, task) for task in tasks]

    outputs.sort(key=lambda item: item[0])
    results: List[Any] = [None] * len(tasks)
    merge = telemetry.is_enabled()
    registry = telemetry.get_registry()
    event_log = telemetry.get_event_log()
    for index, result, snapshot, event_snapshot, elapsed in outputs:
        results[index] = result
        if merge and snapshot is not None:
            registry.merge_snapshot(snapshot)
        if merge and event_log is not None and event_snapshot is not None:
            event_log.merge_worker(event_snapshot)
        telemetry.histogram("parallel.chunk_seconds", elapsed)
    telemetry.gauge("parallel.workers", workers)
    telemetry.counter("parallel.tasks", len(tasks))
    return results


def _pool_context():
    """Pick a start method: ``fork`` (free context transport) if the
    platform has it, else ``spawn``."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork"), True
    return mp.get_context("spawn"), False


def _run_pool(fn, tasks, context, workers):
    """Fan ``tasks`` out over a fresh pool; returns raw worker outputs."""
    ctx, forked = _pool_context()
    parent_log = telemetry.get_event_log()
    state = {"fn": fn, "context": context,
             "telemetry": telemetry.is_enabled(),
             "events": parent_log.capacity if parent_log is not None else None}
    payload = None if forked else state
    if forked:
        _WORKER.update(state)
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                 initializer=_initializer,
                                 initargs=(payload,)) as pool:
            return list(pool.map(_execute, enumerate(tasks), chunksize=1))
    finally:
        if forked:
            # Drop the context reference so the parent does not pin a
            # large object (model, CKG) beyond the pool's lifetime.
            _WORKER.update({"fn": None, "context": None, "telemetry": False,
                            "events": None})

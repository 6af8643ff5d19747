"""All-ranking evaluation protocol (§V-A2 of the paper).

For every test user, a model scores **all** items; training positives are
masked; recall@N and ndcg@N are computed against the held-out positives
and averaged over users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..autodiff import no_tape
from ..data import Split
from ..parallel import run_parallel
from .metrics import ndcg_at_n, rank_items, recall_at_n


class Scorer(Protocol):
    """Anything that can score all items for a batch of users."""

    def score_users(self, users: Sequence[int]) -> np.ndarray:
        """Return an array of shape ``(len(users), num_items)``."""
        ...


@dataclass
class EvalResult:
    """Averaged metrics plus the per-user breakdown."""

    recall: float
    ndcg: float
    n: int
    num_users: int
    per_user_recall: Dict[int, float]
    per_user_ndcg: Dict[int, float]

    def __str__(self) -> str:
        return (f"recall@{self.n}={self.recall:.4f} "
                f"ndcg@{self.n}={self.ndcg:.4f} ({self.num_users} users)")


def _evaluate_batch(context, batch: Sequence[int]
                    ) -> List[Tuple[int, float, float]]:
    """Score and rank one user batch; returns (user, recall, ndcg) rows.

    Module-level so :func:`repro.parallel.run_parallel` workers can run
    it; the serial path calls it directly, so the two paths execute —
    and instrument — the exact same code.
    """
    model, split, n, health = context
    with telemetry.span("eval.score"), no_tape():
        scores = model.score_users(batch)
    if scores.shape[0] != len(batch):
        raise ValueError(
            f"scorer returned {scores.shape[0]} rows for {len(batch)} users"
        )
    if health is not None and not np.all(np.isfinite(scores)):
        bad = int(np.count_nonzero(~np.isfinite(scores)))
        health.alert(
            "nan_scores", severity="fatal",
            message=f"{bad} non-finite score(s) in a batch of "
                    f"{len(batch)} users — rankings are meaningless",
            value=float(bad), users=[int(u) for u in batch[:8]])
    rows: List[Tuple[int, float, float]] = []
    with telemetry.span("eval.rank"):
        for row, user in enumerate(batch):
            exclude = split.train.positives(user)
            ranked = rank_items(scores[row], exclude, n)
            relevant = split.test_positives[user]
            rows.append((user, recall_at_n(ranked, relevant, n),
                         ndcg_at_n(ranked, relevant, n)))
    telemetry.counter("eval.users", len(batch))
    return rows


def evaluate(model: Scorer, split: Split, n: int = 20,
             batch_size: int = 64,
             max_users: Optional[int] = None,
             seed: int = 0,
             num_workers: Optional[int] = None,
             health=None) -> EvalResult:
    """Evaluate ``model`` on ``split`` with the all-ranking protocol.

    Parameters
    ----------
    model:
        Scorer over all items.
    split:
        Train/test division; test positives define relevance.
    n:
        Metric cutoff (paper default 20).
    batch_size:
        Users scored per call to ``model.score_users``.
    max_users:
        Optional cap on evaluated users (uniform subsample) to bound
        benchmark runtime; ``None`` evaluates everyone.
    seed:
        Subsampling seed (only used when ``max_users`` is set).
    num_workers:
        Processes for batch-level fan-out (:mod:`repro.parallel`);
        ``None`` defers to ``$REPRO_NUM_WORKERS`` and 1 keeps the plain
        serial loop.  Users are scored per batch on both paths and
        metrics are averaged in the same user order, so any
        deterministic scorer (e.g. a PPR-sampler KUCNet) produces
        bitwise-identical results at every worker count.
    health:
        Optional :class:`repro.health.HealthMonitor`; when given, every
        scored batch is guarded against non-finite scores (a fatal
        ``nan_scores`` alert — raised under the ``"raise"`` policy).  On
        the parallel path workers count alerts into the merged
        ``health.alerts`` counters; the alert *objects* stay
        worker-local.
    """
    users = split.test_users
    if not users:
        raise ValueError("split has no test users")
    if max_users is not None and len(users) > max_users:
        rng = np.random.default_rng(seed)
        users = sorted(rng.choice(users, size=max_users, replace=False).tolist())

    batches = [users[start:start + batch_size]
               for start in range(0, len(users), batch_size)]
    outputs = run_parallel(_evaluate_batch, batches,
                           context=(model, split, n, health),
                           num_workers=num_workers, label="eval")

    per_user_recall: Dict[int, float] = {}
    per_user_ndcg: Dict[int, float] = {}
    for rows in outputs:
        for user, recall, ndcg in rows:
            per_user_recall[user] = recall
            per_user_ndcg[user] = ndcg

    return EvalResult(
        recall=float(np.mean(list(per_user_recall.values()))),
        ndcg=float(np.mean(list(per_user_ndcg.values()))),
        n=n,
        num_users=len(users),
        per_user_recall=per_user_recall,
        per_user_ndcg=per_user_ndcg,
    )

"""Statistics and output checks shared by every workload.

* :func:`percentile` — nearest-rank percentile that refuses a tail it
  cannot support: a percentile needs at least
  :data:`MIN_BEYOND` samples above it to be reported at all.
* :func:`check_answers` — the ranking contract of every served answer:
  exactly ``k`` distinct in-range items, none a training positive, none
  an interaction whose write completed before the read was sent.
* :func:`served_quality` — recall/ndcg of served rankings against the
  split's held-out positives.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.data import Split
from repro.eval.metrics import ndcg_at_n, recall_at_n

#: samples a reported percentile must have beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the chosen rank, so a tail is never read off a handful of
    points.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}")
    return ordered[rank - 1]


def percentile_or_none(values: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or ``None`` where the sample is too small."""
    try:
        return percentile(values, q)
    except ValueError:
        return None


def check_ranking(user: int, ranking: Sequence[int], k: int, num_items: int,
                  excluded: Set[int]) -> Optional[str]:
    """Why ``ranking`` breaks the serving contract, or ``None``."""
    items = list(ranking)
    if len(items) != k:
        return f"user {user}: {len(items)} items, expected {k}"
    if len(set(items)) != k:
        return f"user {user}: duplicate items in {items}"
    bad = [item for item in items if not 0 <= item < num_items]
    if bad:
        return f"user {user}: items {bad} out of range [0, {num_items})"
    leaked = sorted(excluded.intersection(items))
    if leaked:
        return f"user {user}: served known positives {leaked}"
    return None


def answer_rankings(record: dict) -> Dict[int, List[int]]:
    """``{user: ranking}`` from one ``/recommend`` response body."""
    body = json.loads(record["body"])
    return {int(user): ranking for user, ranking in body["results"].items()}


def check_answers(records: Iterable[dict], split: Split,
                  k: int) -> List[str]:
    """Contract violations across one run's request records.

    ``records`` are :mod:`loadgen` records: ``path``, request
    ``payload``, response ``status`` and ``body``, and the client-side
    ``sent`` / ``done`` times.  Failed requests are counted elsewhere;
    here only answers are judged.
    """
    records = [record for record in records if record["status"] == 200]
    writes: List[Tuple[float, int, int]] = sorted(
        (record["done"], user, item)
        for record in records if record["path"] == "/interactions"
        for user, item in record["payload"]["pairs"])
    num_items = split.dataset.num_items
    problems: List[str] = []
    for record in records:
        if record["path"] != "/recommend":
            continue
        rankings = answer_rankings(record)
        asked = {int(user) for user in record["payload"]["users"]}
        if set(rankings) != asked:
            problems.append(f"asked for users {sorted(asked)}, "
                            f"answered {sorted(rankings)}")
            continue
        for user, ranking in rankings.items():
            excluded = set(split.train.positives(user))
            excluded.update(item for done, writer, item in writes
                            if writer == user and done < record["sent"])
            problem = check_ranking(user, ranking, k, num_items, excluded)
            if problem:
                problems.append(problem)
    return problems


def served_quality(records: Iterable[dict], split: Split,
                   k: int) -> Tuple[float, float, int]:
    """Mean recall@k / ndcg@k over distinct served users with held-out
    positives, each judged on its first answer; returns ``(recall, ndcg,
    users)``."""
    first: Dict[int, List[int]] = {}
    for record in sorted(records, key=lambda record: record["sent"]):
        if record["path"] != "/recommend" or record["status"] != 200:
            continue
        for user, ranking in answer_rankings(record).items():
            first.setdefault(user, ranking)
    judged = [(ranking, split.test_positives[user])
              for user, ranking in first.items()
              if split.test_positives.get(user)]
    if not judged:
        raise ValueError("no served user has held-out positives")
    recall = sum(recall_at_n(ranking, relevant, k)
                 for ranking, relevant in judged) / len(judged)
    ndcg = sum(ndcg_at_n(ranking, relevant, k)
               for ranking, relevant in judged) / len(judged)
    return recall, ndcg, len(judged)

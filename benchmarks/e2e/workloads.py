"""The four end-to-end workloads and the inputs they derive from a seed.

Each workload is a frozen spec.  Everything a run consumes — the
generated dataset, its train/test split and the HTTP request log — is a
pure function of ``(spec, seed, seconds)``; nothing else varies with the
seed.  The builders here are shared by the fresh-process pipeline child
(``pipeline_child.py``), the HTTP driver (``run.py``) and the traced pass
(``traced.py``), so all three run the same configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core import KUCNetConfig, KUCNetRecommender, TrainConfig
from repro.data import PRESETS, Split, traditional_split
from repro.eval.protocol import EvalResult, evaluate
from repro.serve import RecommendationService, ServeConfig

DATASET = "lastfm_like"
#: items per ranking, everywhere: the paper's N and ``repro serve --top-k``
TOP_K = 20
#: dataset scale of every workload under ``--smoke``
SMOKE_SCALE = 0.3
#: pipeline training: epochs and users per batch (the paper's batch size)
PIPELINE_EPOCHS = 2
PIPELINE_BATCH_USERS = 24
#: users scored per ``evaluate`` batch.  At the default 64, the largest
#: depth-3 eval batch set the pipeline's peak RSS, and that peak jumped
#: between ≈ 370 and ≈ 460 MB from seed to seed; at 16, training sets it
PIPELINE_EVAL_BATCH_USERS = 16
#: users per ``POST /recommend``
USERS_PER_READ = 4
#: training epochs before serving (``repro serve --epochs``)
SERVE_EPOCHS = 1


@dataclass(frozen=True)
class PipelineSpec:
    """generate → ``KUCNetRecommender.fit`` → ``evaluate``, in one process."""

    name: str
    scale: float
    dim: int
    depth: int
    k: int
    ppr_method: str
    ppr_store: str
    #: evaluated users (a seeded subsample); ``None`` = every test user
    eval_users: Optional[int] = None
    kind = "pipeline"

    def smoke(self) -> "PipelineSpec":
        return dataclasses.replace(self, scale=SMOKE_SCALE)


@dataclass(frozen=True)
class ServeSpec:
    """``python -m repro serve`` under an open-loop request schedule."""

    name: str
    scale: float
    cache_entries: int
    #: arrival rate of ``POST /recommend`` (requests per second)
    read_rate: float
    #: Zipf exponent of the user popularity; ``None`` draws uniformly
    zipf: Optional[float]
    #: arrival rate of ``POST /interactions`` (0 = read-only)
    write_rate: float = 0.0
    kind = "serve"

    def smoke(self) -> "ServeSpec":
        return dataclasses.replace(self, scale=SMOKE_SCALE)


WORKLOADS: Dict[str, object] = {spec.name: spec for spec in (
    # The paper's depth-3 pipeline: autodiff, core, sampling and engine do
    # the work; PPR (power iteration) and storage do little.
    PipelineSpec(name="pipeline.paper", scale=2.0, dim=32, depth=3, k=20,
                 ppr_method="power", ppr_store="ram"),
    # Past the push/power crossover, with mmap shards: PPR and storage take
    # the largest share, training the smaller one.
    PipelineSpec(name="pipeline.scale", scale=16.0, dim=16, depth=2, k=10,
                 ppr_method="push", ppr_store="mmap", eval_users=256),
    # Zipf reads whose working set fits the LRU: HTTP/JSON and the cache do
    # the work, scoring runs only on misses.
    ServeSpec(name="serve.hot", scale=1.0, cache_entries=1024,
              read_rate=150.0, zipf=1.1),
    # Uniform reads over more users than the cache holds, plus writes:
    # misses score fully and maintenance holds the service lock.  One
    # write a second keeps the lock held ≈ 12% of the time; at two, reads
    # queued behind writes reached the median read and doubled it whenever
    # the host ran slow.
    ServeSpec(name="serve.churn", scale=4.0, cache_entries=256,
              read_rate=60.0, zipf=None, write_rate=1.0),
)}


def make_split(spec, seed: int) -> Split:
    """The seeded dataset and traditional split (what ``repro serve`` builds)."""
    dataset = PRESETS[DATASET](seed=seed, scale=spec.scale)
    return traditional_split(dataset, seed=seed)


# ----------------------------------------------------------------------
# Pipelines
# ----------------------------------------------------------------------

def make_recommender(spec: PipelineSpec, seed: int,
                     store_dir: str) -> KUCNetRecommender:
    return KUCNetRecommender(
        KUCNetConfig(dim=spec.dim, depth=spec.depth, seed=seed),
        TrainConfig(epochs=PIPELINE_EPOCHS, batch_users=PIPELINE_BATCH_USERS,
                    k=spec.k, seed=seed, ppr_method=spec.ppr_method,
                    ppr_store=spec.ppr_store, ppr_store_dir=store_dir,
                    num_workers=1))


def evaluate_recommender(spec: PipelineSpec, recommender: KUCNetRecommender,
                         split: Split, seed: int) -> EvalResult:
    return evaluate(recommender, split, n=TOP_K, max_users=spec.eval_users,
                    batch_size=PIPELINE_EVAL_BATCH_USERS, seed=seed,
                    num_workers=1)


def training_pairs(recommender: KUCNetRecommender, split: Split) -> int:
    """BPR pairs one ``fit`` trains on (every user with a positive, per epoch)."""
    config = recommender.train_config
    users = sum(1 for user in split.train.users_with_interactions()
                if split.train.positives(user))
    return users * config.pairs_per_user * len(recommender.history)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------

def serve_command(spec: ServeSpec, seed: int, port_file: str) -> List[str]:
    """Arguments after ``python -m`` that launch the shipped server."""
    return ["repro", "serve", "--dataset", DATASET, "--scale", str(spec.scale),
            "--epochs", str(SERVE_EPOCHS), "--cache-entries",
            str(spec.cache_entries), "--top-k", str(TOP_K), "--seed", str(seed),
            "--port", "0", "--port-file", port_file]


def build_service(spec: ServeSpec, seed: int, split: Split
                  ) -> Tuple[KUCNetRecommender, RecommendationService]:
    """An in-process service with exactly the configs ``repro serve`` uses."""
    recommender = KUCNetRecommender(
        KUCNetConfig(dim=16, depth=2, seed=seed),
        TrainConfig(epochs=SERVE_EPOCHS, batch_users=16, k=10, seed=seed,
                    verbose=False, ppr_method="push", ppr_store=None))
    recommender.fit(split)
    return recommender, RecommendationService.from_recommender(
        recommender, split,
        ServeConfig(top_k=TOP_K, cache_entries=spec.cache_entries))


class Request(NamedTuple):
    """One scheduled HTTP request; ``due`` is seconds after the start."""

    due: float
    stream: int
    path: str
    body: dict

    @property
    def is_write(self) -> bool:
        return self.path == "/interactions"


READS, WRITES = 0, 1


def _arrivals(rng: np.random.Generator, rate: float,
              seconds: float) -> List[float]:
    """``round(rate * seconds)`` sorted uniform times in ``[0, seconds)``.

    That is a Poisson process conditioned on its count: arrivals stay
    random, but every seed sends the same number of requests, so the
    load (and the share of time writes hold the service lock) does not
    vary with the seed.
    """
    count = max(0, round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=count)).tolist()


def read_users(seed: int, num_users: int, count: int,
               zipf: Optional[float] = None) -> List[List[int]]:
    """``count`` draws of :data:`USERS_PER_READ` distinct users (Zipf, or
    uniform when ``zipf`` is ``None``)."""
    rng = np.random.default_rng([seed, 1])
    probs = None
    if zipf is not None:
        weights = np.arange(1, num_users + 1, dtype=np.float64) ** -zipf
        # which users are popular is itself seeded
        probs = np.empty(num_users)
        probs[rng.permutation(num_users)] = weights / weights.sum()
    size = min(USERS_PER_READ, num_users)
    return [sorted(rng.choice(num_users, size=size, replace=False,
                              p=probs).tolist())
            for _ in range(count)]


def write_pairs(seed: int, split: Split, count: int) -> List[Tuple[int, int]]:
    """``count`` fresh (user, item) pairs: never a train or test positive,
    never repeated, so every write adds exactly one interaction."""
    rng = np.random.default_rng([seed, 2])
    num_users = split.dataset.num_users
    num_items = split.dataset.num_items
    taken: Dict[int, Set[int]] = {}
    pairs: List[Tuple[int, int]] = []
    while len(pairs) < count:
        user = int(rng.integers(num_users))
        item = int(rng.integers(num_items))
        known = taken.setdefault(
            user, set(split.train.positives(user))
            | split.test_positives.get(user, set()))
        if item in known:
            continue
        known.add(item)
        pairs.append((user, item))
    return pairs


def request_log(spec: ServeSpec, seed: int, seconds: float,
                split: Split) -> List[Request]:
    """The open-loop schedule: seeded arrivals, users and write pairs."""
    read_times = _arrivals(np.random.default_rng([seed, 3]),
                           spec.read_rate, seconds)
    write_times = _arrivals(np.random.default_rng([seed, 4]),
                            spec.write_rate, seconds)
    users = read_users(seed, split.dataset.num_users, len(read_times),
                       spec.zipf)
    pairs = write_pairs(seed, split, len(write_times))
    log = [Request(due, READS, "/recommend", {"users": group, "k": TOP_K})
           for due, group in zip(read_times, users)]
    log += [Request(due, WRITES, "/interactions", {"pairs": [list(pair)]})
            for due, pair in zip(write_times, pairs)]
    return sorted(log, key=lambda request: request.due)


def tail_log(seed: int, split: Split, reads: int = 32) -> List[Request]:
    """A serve query batch of uniform reads plus one write.

    Every traced pass ends its request stream with a write, so the
    maintenance layers report on every workload, read-only ones included.
    """
    log = [Request(0.0, READS, "/recommend", {"users": group, "k": TOP_K})
           for group in read_users(seed, split.dataset.num_users, reads)]
    return log + closing_write(seed, split, log)


def closing_write(seed: int, split: Split,
                  log: List[Request]) -> List[Request]:
    """One write after ``log`` unless it already holds one."""
    if any(request.is_write for request in log):
        return []
    due = log[-1].due if log else 0.0
    (pair,) = write_pairs(seed, split, 1)
    return [Request(due, WRITES, "/interactions", {"pairs": [list(pair)]})]

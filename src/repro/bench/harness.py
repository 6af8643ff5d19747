"""Timing harness: warmup, adaptive repeats, median/IQR, telemetry snapshot.

Statistical honesty over micro-benchmark folklore:

* **warmup** runs are discarded — they pay one-time costs (allocator
  growth, cache population, lazy imports) that are not the workload;
* **adaptive repeats** — every workload runs at least ``min_repeats``
  times and keeps going until it has consumed ``budget_seconds`` of
  wall time (or hits ``max_repeats``), so fast workloads get enough
  samples for a stable median and slow ones don't stall the suite;
* **median and IQR**, not mean and stddev — one GC pause or CI-runner
  hiccup should not move the headline number, and the IQR is exactly
  the noise scale the comparison engine uses for its advisory wall-time
  gates;
* one extra **instrumented pass** per workload runs with telemetry
  enabled against a clean registry and stores the full snapshot —
  spans, counters, gauges, histograms.  The timed repeats run with
  telemetry *disabled* so instrumentation overhead never pollutes the
  wall numbers; the counters, being deterministic, do not need repeats.

``run_suite`` assembles the per-workload results into the
schema-versioned report dict that :mod:`.artifact` serializes.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import telemetry
from .artifact import SCHEMA, git_sha, machine_fingerprint
from .workloads import SUITES, Workload, get_workloads, make_runner

__all__ = ["HarnessConfig", "WorkloadResult", "run_workload", "run_suite"]


@dataclass(frozen=True)
class HarnessConfig:
    """Repeat policy knobs (recorded verbatim in the artifact)."""

    warmup: int = 1
    min_repeats: int = 3
    max_repeats: int = 30
    #: target wall time spent on timed repeats per workload
    budget_seconds: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {"warmup": self.warmup, "min_repeats": self.min_repeats,
                "max_repeats": self.max_repeats,
                "budget_seconds": self.budget_seconds}


@dataclass
class WorkloadResult:
    """Timing statistics plus the instrumented-run telemetry snapshot."""

    name: str
    params: Dict[str, Any]
    warmup: int
    seconds: List[float]
    telemetry: Dict[str, Dict[str, Dict[str, Any]]]
    setup_seconds: float = 0.0

    @property
    def repeats(self) -> int:
        return len(self.seconds)

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.seconds)

    @property
    def iqr_seconds(self) -> float:
        if len(self.seconds) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.seconds, n=4)
        return max(0.0, q3 - q1)

    def to_entry(self) -> Dict[str, Any]:
        """The per-workload object stored under ``report["workloads"]``."""
        return {
            "params": dict(self.params),
            "warmup": self.warmup,
            "repeats": self.repeats,
            "seconds": list(self.seconds),
            "median_seconds": self.median_seconds,
            "iqr_seconds": self.iqr_seconds,
            "min_seconds": min(self.seconds),
            "max_seconds": max(self.seconds),
            "setup_seconds": self.setup_seconds,
            "telemetry": self.telemetry,
        }


def run_workload(workload: Workload, suite: str,
                 config: Optional[HarnessConfig] = None,
                 verbose: bool = False) -> WorkloadResult:
    """Time one workload under the harness policy.

    Resets the process-wide telemetry registry for the instrumented
    pass — the harness owns the process while a suite runs.
    """
    config = config or HarnessConfig()
    setup_start = time.perf_counter()
    run = make_runner(workload, suite)
    setup_seconds = time.perf_counter() - setup_start

    with telemetry.enabled(False):
        for _ in range(config.warmup):
            run()

        seconds = []
        spent = 0.0
        while (len(seconds) < config.min_repeats
               or (spent < config.budget_seconds
                   and len(seconds) < config.max_repeats)):
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            seconds.append(elapsed)
            spent += elapsed

    telemetry.reset()
    with telemetry.enabled():
        run()
    snapshot = telemetry.get_registry().snapshot()
    telemetry.reset()

    # The harness resets the live registry per workload, so a live
    # /metrics scrape mid-suite would otherwise show only the workload
    # in flight; hand the finished snapshot to the exporter (a single
    # is-None check when none is running).  Imported here: runstore
    # sits above bench in the layering (its diff engine is built on
    # bench.compare), so a module-level import would be circular.
    from ..runstore.exporter import publish_snapshot
    publish_snapshot(snapshot)

    result = WorkloadResult(name=workload.name,
                            params=dict(workload.params[suite]),
                            warmup=config.warmup, seconds=seconds,
                            telemetry=snapshot,
                            setup_seconds=setup_seconds)
    if verbose:
        print(f"  {workload.name:28s} median {1e3 * result.median_seconds:9.2f} ms  "
              f"iqr {1e3 * result.iqr_seconds:7.2f} ms  "
              f"({result.repeats} repeats)")
    return result


def run_suite(suite: str, names: Optional[List[str]] = None,
              config: Optional[HarnessConfig] = None,
              verbose: bool = False) -> Dict[str, Any]:
    """Run a workload suite and return the ``BENCH_*`` report dict."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    config = config or HarnessConfig()
    workloads = get_workloads(names)

    entries: Dict[str, Any] = {}
    medians: Dict[str, float] = {}
    for workload in workloads:
        result = run_workload(workload, suite, config, verbose=verbose)
        entries[workload.name] = result.to_entry()
        medians[workload.name] = result.median_seconds

    manifest = telemetry.RunManifest(
        run=f"bench:{suite}", seed=0,
        config={"suite": suite, "harness": config.to_dict(),
                "workloads": sorted(entries)},
        metrics={f"{name}.median_seconds": median
                 for name, median in medians.items()})
    return {
        "schema": SCHEMA,
        "suite": suite,
        "created_unix": time.time(),
        "git_sha": git_sha(),
        "machine": machine_fingerprint(),
        "config": config.to_dict(),
        "workloads": entries,
        "manifest": manifest.to_record(),
    }

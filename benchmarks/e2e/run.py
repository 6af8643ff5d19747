"""End-to-end KUCNet benchmark: paper and scale pipelines, hot and churning
HTTP serving.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]

Without ``--trace`` every workload reports the end-to-end metrics of
``BENCHMARK.json``; with it, a separate in-process pass reports the
per-layer metrics (``traced.py``).  Every output is checked; the last
stdout line is one JSON object ``{correct, attempted, failed, metrics}``
and the exit code is non-zero when any check failed.  The seed (default
0) sets the generated dataset and the request schedule, nothing else.
A run of all four workloads without ``--trace`` or ``--smoke`` appends a
summary line to ``trajectory.jsonl``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: scratch space (shards, port files, server logs); removed after a run
WORK = os.path.join(HERE, "_work")
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")

DEFAULT_SECONDS = 25.0
SMOKE_SECONDS = 3.0
#: pipeline repeats (and so set-ups) per run, at least; a median needs several
MIN_REPEATS = 3
#: server launches per serve run; ``setup_s`` is their median
SERVE_LAUNCHES = 3
#: a pipeline job slower than this fails the run
JOB_TIMEOUT_S = 150.0
#: latency limit behind the read SLO share
SLO_MS = 50.0
#: wait past the server's 1 s metrics-snapshot interval before scraping
SCRAPE_DELAY_S = 1.1


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end KUCNet benchmark (see README.md).")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per workload (default "
                             f"{DEFAULT_SECONDS:g}, {SMOKE_SECONDS:g} with "
                             "--smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes (scale 0.3) for a quick self-test")
    parser.add_argument("--out", metavar="FILE",
                        help="also write every workload's full report here")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2e benchmark: no repro package under {SRC}; run it from a "
              "full checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC_PATH):
        print(f"e2e benchmark: {SPEC_PATH} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    _isolate_environment()
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    with open(SPEC_PATH, encoding="utf-8") as handle:
        declared = json.load(handle)
    units = {metric["name"]: metric["unit"] for metric in
             declared["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(WORK, exist_ok=True)
    reports = []
    try:
        for name in names:
            spec = WORKLOADS[name]
            if args.smoke:
                spec = spec.smoke()
            report = run_workload(spec, args.seed, seconds, bool(args.trace),
                                  args.smoke)
            values = report["values"]
            missing = sorted(set(units) - set(values))
            if missing and not report["problems"]:
                report["problems"].append(f"metrics not produced: {missing}")
            report["metrics"] = {metric: {"value": values[metric],
                                          "unit": unit}
                                 for metric, unit in units.items()
                                 if metric in values}
            print_report(report)
            reports.append(report)
            gc.collect()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(reports, handle, indent=2, sort_keys=True, default=str)
    if not args.trace and not args.smoke and args.workload is None:
        append_trajectory(reports, args.seed, seconds)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{report['workload']}/{metric}": value
                   for report in reports
                   for metric, value in report["metrics"].items()}
    correct = all(not report["problems"] for report in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics}))
    return 0 if correct else 1


def _isolate_environment() -> None:
    """Children import this checkout's sources and no ``REPRO_*`` knob;
    temporary files stay inside the checkout."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["PYTHONPATH"] = SRC
    os.environ["TMPDIR"] = WORK
    tempfile.tempdir = WORK


def run_workload(spec, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One workload's report: ``values``, ``diagnostics`` and ``problems``."""
    started = time.perf_counter()
    try:
        if trace:
            import traced
            report = traced.trace_workload(spec, seed, seconds, WORK)
        elif spec.kind == "pipeline":
            report = run_pipeline(spec, seed, seconds, smoke)
        else:
            report = run_serve(spec, seed, seconds)
    except Exception as error:  # noqa: BLE001 — reported as a failed run
        traceback.print_exc()
        report = {"values": {}, "diagnostics": {}, "attempted": 1,
                  "failed": 1, "problems": [f"{type(error).__name__}: {error}"]}
    report.update(workload=spec.name, seed=seed, seconds=seconds,
                  mode="trace" if trace else "e2e",
                  wall_s=time.perf_counter() - started)
    return report


# ----------------------------------------------------------------------
# Pipelines: one fresh process per repeat
# ----------------------------------------------------------------------

def run_pipeline(spec, seed: int, seconds: float, smoke: bool) -> dict:
    jobs: List[dict] = []
    problems: List[str] = []
    started = time.perf_counter()
    while not problems and (len(jobs) < MIN_REPEATS
                            or time.perf_counter() - started < seconds):
        store_dir = os.path.join(WORK, f"job{len(jobs)}")
        command = [sys.executable, os.path.join(HERE, "pipeline_child.py"),
                   spec.name, str(seed), store_dir]
        try:
            child = subprocess.run(command + (["--smoke"] if smoke else []),
                                   capture_output=True, text=True,
                                   timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"job {len(jobs)} ran past {JOB_TIMEOUT_S:g} s")
            break
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        if child.returncode != 0:
            problems.append(f"job {len(jobs)} exited {child.returncode}: "
                            f"{child.stderr.strip()[-500:]}")
            break
        jobs.append(json.loads(child.stdout.strip().splitlines()[-1]))
    failed = 1 if problems else 0
    if not jobs:
        return {"values": {}, "diagnostics": {}, "problems": problems,
                "attempted": failed, "failed": failed}

    for field in ("recall", "ndcg", "train_pairs", "eval_users"):
        values = {job[field] for job in jobs}
        if len(values) != 1:
            problems.append(f"{field} differs between repeats: "
                            f"{sorted(values)}")
    median = lambda field: statistics.median(job[field]  # noqa: E731
                                             for job in jobs)
    pipeline_s = [job["pipeline_s"] for job in jobs]
    values = {
        "setup_s": median("setup_s"),
        "latency_p50_ms": 1e3 * statistics.median(pipeline_s),
        "cpu_ms_per_op": 1e3 * median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    diagnostics = {
        "repeats": len(jobs),
        "recall_at_20": jobs[0]["recall"],
        "ndcg_at_20": jobs[0]["ndcg"],
        "pipeline_s": statistics.median(pipeline_s),
        "pipeline_s_each": pipeline_s,
        "fit_s": median("fit_s"),
        "eval_s": median("eval_s"),
        "ppr_s": median("ppr_s"),
        "epoch_s": statistics.median(sum(job["epoch_s"]) for job in jobs),
        "train_pairs": jobs[0]["train_pairs"],
        "train_pairs_per_s": statistics.median(
            job["train_pairs"] / sum(job["epoch_s"]) for job in jobs),
        "eval_users": jobs[0]["eval_users"],
        "eval_users_per_s": statistics.median(
            job["eval_users"] / job["eval_s"] for job in jobs),
    }
    return {"values": values, "diagnostics": diagnostics,
            "problems": problems, "attempted": len(jobs) + failed,
            "failed": failed}


# ----------------------------------------------------------------------
# Serving: the shipped CLI under an open-loop schedule
# ----------------------------------------------------------------------

def run_serve(spec, seed: int, seconds: float) -> dict:
    import checks
    import loadgen
    from workloads import TOP_K, make_split, request_log

    split = make_split(spec, seed)
    log = request_log(spec, seed, seconds, split)
    problems: List[str] = []
    setups: List[float] = []
    server = None
    try:
        for _ in range(SERVE_LAUNCHES):
            if server is not None:
                server.stop()
            server = loadgen.ServerProcess.launch(spec, seed, WORK)
            setups.append(server.setup_s)
        cpu_started = server.cpu_seconds()
        records = loadgen.open_loop(server.port, log)
        cpu_s = server.cpu_seconds() - cpu_started
        peak_rss_mb = server.peak_rss_mb()
        # /metrics serves a snapshot refreshed every second: wait for one
        # taken after the last request
        time.sleep(SCRAPE_DELAY_S)
        counters = server.scrape().get("repro_counter_total", {})
    finally:
        if server is not None:
            server.stop()

    failed = [record for record in records if record["status"] != 200]
    problems += [f"{record['path']} failed: "
                 f"{record['error'] or record['status']}"
                 for record in failed[:3]]
    problems += checks.check_answers(records, split, TOP_K)
    recall, ndcg, judged = checks.served_quality(records, split, TOP_K)

    ok = [record for record in records if record["status"] == 200]
    latency = [record["done"] - record["due"] for record in ok]
    reads = [record for record in records if record["path"] == "/recommend"]
    read_ms = [1e3 * (record["done"] - record["due"]) for record in reads
               if record["status"] == 200]
    writes = [record for record in ok if record["path"] == "/interactions"]
    write_ms = [1e3 * (record["done"] - record["due"]) for record in writes]
    summaries = [json.loads(record["body"]) for record in writes]
    late_ms = [1e3 * (record["sent"] - record["due"]) for record in records]
    hits = counters.get("serve.cache_hits", 0.0)
    lookups = hits + counters.get("serve.cache_misses", 0.0)
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * checks.percentile(latency, 50),
        "cpu_ms_per_op": 1e3 * cpu_s / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    diagnostics = {
        "requests": len(records),
        "latency_mean_ms": 1e3 * statistics.fmean(latency),
        "reads": len(reads),
        "read_p50_ms": checks.percentile_or_none(read_ms, 50),
        "read_p99_ms": checks.percentile_or_none(read_ms, 99),
        "read_slo_pct": 100.0 * sum(ms <= SLO_MS for ms in read_ms)
                        / max(1, len(reads)),
        "writes": len(writes),
        "write_p50_ms": checks.percentile_or_none(write_ms, 50),
        "write_p90_ms": checks.percentile_or_none(write_ms, 90),
        "error_pct": 100.0 * len(failed) / max(1, len(records)),
        "lateness_p50_ms": checks.percentile_or_none(late_ms, 50),
        "lateness_max_ms": max(late_ms, default=0.0),
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
        "interactions_added": sum(summary["added"] for summary in summaries),
        "push_ops_per_write": statistics.fmean(
            [summary["push_ops"] for summary in summaries] or [0]),
        "invalidations_per_write": statistics.fmean(
            [summary["cache_invalidated"] for summary in summaries] or [0]),
        "served_recall_at_20": recall,
        "served_ndcg_at_20": ndcg,
        "judged_users": judged,
        "launch_s": setups,
    }
    return {"values": values, "diagnostics": diagnostics,
            "problems": problems, "attempted": len(records),
            "failed": len(failed)}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def print_report(report: dict) -> None:
    print(f"== {report['workload']} · seed {report['seed']} · "
          f"{report['seconds']:g} s · {report['mode']} "
          f"({report['wall_s']:.1f} s wall) ==")
    for name, metric in report["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    for row in report.get("ledger", []):
        print(f"  ledger {row['stage']:27s} {row['seconds']:>10.4f} s "
              f"{100 * row['share']:6.2f} %")
    for name, value in report["diagnostics"].items():
        print(f"  · {name:32s} {value}")
    print("  problems: " + ("; ".join(report["problems"][:10]) or "none"))
    print(json.dumps({key: report[key] for key in
                      ("workload", "mode", "seed", "seconds", "diagnostics",
                       "problems") if key in report}, default=str))


def append_trajectory(reports: List[dict], seed: int, seconds: float) -> None:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    headline = ("recall_at_20", "ndcg_at_20", "train_pairs",
                "train_pairs_per_s", "eval_users_per_s", "read_p50_ms",
                "read_p99_ms", "read_slo_pct", "write_p50_ms", "write_p90_ms",
                "error_pct", "cache_hit_ratio", "interactions_added",
                "push_ops_per_write", "served_recall_at_20")
    line = {
        "sha": sha, "seed": seed, "nproc": os.cpu_count(), "seconds": seconds,
        "workloads": {report["workload"]: {
            "metrics": report["values"],
            "counters": {name: report["diagnostics"][name] for name in headline
                         if name in report["diagnostics"]}}
            for report in reports},
    }
    with open(TRAJECTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())

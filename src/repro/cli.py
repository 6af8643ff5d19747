"""Command-line interface: regenerate paper experiments from the shell.

Usage::

    python -m repro list
    python -m repro run table3 [--profile quick|full] [--output DIR] [--workers N]
    python -m repro datasets --output DIR [--scale 1.0]
    python -m repro profile [--dataset NAME] [--sink table|jsonl] [--out FILE]
                            [--workers N] [--trace-out FILE] [--flame-out FILE]
                            [--health-policy warn|raise] [--health-out FILE]
    python -m repro trace --out trace.json [--flame flame.txt] -- CMD...
    python -m repro bench run [--suite quick|full] [--out FILE]
    python -m repro bench compare BASELINE CANDIDATE
    python -m repro bench report DIR [--out FILE]
    python -m repro runs list [--dir DIR] [--kind KIND] [--limit N]
    python -m repro runs show RUN [--dir DIR]
    python -m repro runs diff BASELINE CANDIDATE [--dir DIR]
    python -m repro runs trend [--dir DIR] [--counter NAME ...]
    python -m repro runs gc --keep N [--dir DIR] [--dry-run]

``run`` executes one experiment runner (a paper table or figure) and
prints the measured-vs-paper rows; ``datasets`` materializes the four
synthetic datasets as TSV directories; ``profile`` runs one instrumented
train/eval pass and dumps the telemetry (see ``docs/observability.md``);
``bench`` is the performance-regression observatory — it times the
registered workloads into a ``BENCH_*.json`` artifact, gates a candidate
dump against a baseline, and renders trend reports
(see ``docs/benchmarking.md``); ``trace`` flight-records any other
``repro`` command into a Chrome/Perfetto trace and an optional
folded-stack flamegraph (see ``docs/observability.md``); ``runs``
operates the persistent run registry (:mod:`repro.runstore`) that
``run`` / ``profile`` / ``bench run`` append to when ``--runs-dir`` or
``$REPRO_RUNS_DIR`` is set.  ``--serve-metrics PORT`` (or
``$REPRO_METRICS_PORT``) additionally serves live Prometheus
``/metrics`` + ``/healthz`` while any of those commands run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _default_event_capacity() -> int:
    from .telemetry import DEFAULT_EVENT_CAPACITY
    return DEFAULT_EVENT_CAPACITY


def _add_recording_flags(command: argparse.ArgumentParser) -> None:
    """``--runs-dir`` / ``--serve-metrics`` on every recordable command."""
    command.add_argument("--runs-dir", default=None, metavar="DIR",
                         help="append this invocation to the run registry "
                              "rooted here (default $REPRO_RUNS_DIR, or no "
                              "recording)")
    command.add_argument("--serve-metrics", type=int, default=None,
                         metavar="PORT",
                         help="serve live Prometheus /metrics and /healthz "
                              "on this port while the command runs "
                              "(0 = ephemeral port; default "
                              "$REPRO_METRICS_PORT, or off)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (list / run / datasets / profile)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KUCNet reproduction — experiment runner CLI")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id, e.g. table3 or fig5")
    run.add_argument("--profile", default=None, choices=["quick", "full"],
                     help="execution profile (default: REPRO_PROFILE or quick)")
    run.add_argument("--output", default=None,
                     help="directory to save the markdown rendering")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes for per-user-chunk fan-out "
                          "(sets REPRO_NUM_WORKERS for the experiment; "
                          "default 1 = serial)")
    _add_recording_flags(run)

    datasets = commands.add_parser("datasets",
                                   help="generate the synthetic datasets")
    datasets.add_argument("--output", required=True,
                          help="directory to write TSV dataset folders into")
    datasets.add_argument("--scale", type=float, default=1.0)
    datasets.add_argument("--seed", type=int, default=0)

    profile = commands.add_parser(
        "profile",
        help="run an instrumented train/eval pass and dump telemetry")
    profile.add_argument("--dataset", default="lastfm_like",
                         help="synthetic dataset preset (default lastfm_like)")
    profile.add_argument("--scale", type=float, default=0.15,
                         help="dataset size multiplier (default 0.15)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--epochs", type=int, default=2)
    profile.add_argument("--depth", type=int, default=2,
                         help="KUCNet layer count L")
    profile.add_argument("--k", type=int, default=10,
                         help="PPR top-K pruning budget")
    profile.add_argument("--store", default=None, choices=["ram", "mmap"],
                         help="PPR score backend: in-RAM CSR or on-disk "
                              "mmap'd shards (default: $REPRO_PPR_STORE, "
                              "then ram; see docs/storage.md)")
    profile.add_argument("--ppr-method", default="power",
                         choices=["power", "push"],
                         help="PPR solver: dense power iteration or sparse "
                              "forward push (see docs/performance.md)")
    profile.add_argument("--workers", type=int, default=None,
                         help="worker processes for PPR precompute and eval "
                              "batches (default $REPRO_NUM_WORKERS or 1)")
    profile.add_argument("--sink", default="table",
                         choices=["table", "jsonl"],
                         help="output format: human-readable table or JSONL")
    profile.add_argument("--out", default=None,
                         help="output path (required for --sink jsonl)")
    profile.add_argument("--trace-out", default=None, metavar="FILE",
                         help="flight-record the run and write a "
                              "Chrome/Perfetto trace JSON here")
    profile.add_argument("--flame-out", default=None, metavar="FILE",
                         help="also write a folded-stack flamegraph "
                              "(requires --trace-out)")
    profile.add_argument("--health-policy", default=None,
                         choices=["warn", "raise"],
                         help="enable training-health monitoring with "
                              "this escalation policy")
    profile.add_argument("--health-out", default=None, metavar="FILE",
                         help="write telemetry + health records as JSONL "
                              "here (implies --health-policy warn)")
    _add_recording_flags(profile)

    serve = commands.add_parser(
        "serve",
        help="online recommendation service: train a quick model, then "
             "answer /recommend queries and fold in /interactions via "
             "incremental PPR maintenance (docs/serving.md)")
    serve.add_argument("--dataset", default="lastfm_like",
                       help="synthetic dataset preset (default lastfm_like)")
    serve.add_argument("--scale", type=float, default=0.15,
                       help="dataset size multiplier (default 0.15)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--epochs", type=int, default=1,
                       help="training epochs before serving "
                            "(0 = untrained weights, preprocessing only)")
    serve.add_argument("--depth", type=int, default=2,
                       help="KUCNet layer count L")
    serve.add_argument("--k", type=int, default=10,
                       help="PPR top-K pruning budget")
    serve.add_argument("--store", default=None, choices=["ram", "mmap"],
                       help="serving score backend: in-RAM CSR or on-disk "
                            "mmap'd shards (default: $REPRO_PPR_STORE, "
                            "then ram; see docs/storage.md)")
    serve.add_argument("--top-k", type=int, default=20,
                       help="items ranked and cached per user (requests "
                            "may ask for any k <= this)")
    serve.add_argument("--cache-entries", type=int, default=1024,
                       help="bound on the per-user LRU result cache")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="HTTP port (default 0 = ephemeral; the bound "
                            "port is printed and written to --port-file)")
    serve.add_argument("--port-file", default=None, metavar="FILE",
                       help="write the bound port here once listening "
                            "(lets scripts and CI find an ephemeral port)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="exit after this many seconds "
                            "(default: serve until interrupted)")

    trace = commands.add_parser(
        "trace",
        help="flight-record another repro command into a Chrome trace")
    trace.add_argument("--out", default="trace.json", metavar="FILE",
                       help="Chrome trace-event JSON path "
                            "(default trace.json)")
    trace.add_argument("--flame", default=None, metavar="FILE",
                       help="also write folded-stack flamegraph text here")
    trace.add_argument("--capacity", type=int, default=None,
                       help="event ring-buffer capacity "
                            "(default %d)" % _default_event_capacity())
    trace.add_argument("cmd", nargs=argparse.REMAINDER,
                       help="the repro command to record, e.g. "
                            "'profile --epochs 1' or 'bench run'")

    bench = commands.add_parser(
        "bench",
        help="performance-regression observatory: run / compare / report")
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_commands.add_parser(
        "run", help="time the workload suite into a BENCH_<suite>.json")
    bench_run.add_argument("--suite", default="quick",
                           choices=["quick", "full"],
                           help="workload parameter set (default quick)")
    bench_run.add_argument("--workload", action="append", default=None,
                           metavar="NAME",
                           help="run only this workload (repeatable)")
    bench_run.add_argument("--out", default=None,
                           help="artifact path (default BENCH_<suite>.json)")
    bench_run.add_argument("--warmup", type=int, default=1,
                           help="discarded warmup runs per workload")
    bench_run.add_argument("--min-repeats", type=int, default=3)
    bench_run.add_argument("--max-repeats", type=int, default=30)
    bench_run.add_argument("--budget-seconds", type=float, default=1.0,
                           help="timed-repeat wall budget per workload")
    _add_recording_flags(bench_run)

    bench_compare = bench_commands.add_parser(
        "compare", help="gate a candidate dump against a baseline dump")
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("candidate", help="candidate BENCH_*.json")
    bench_compare.add_argument("--counter-tol", type=float, default=0.10,
                               help="relative tolerance on counter totals "
                                    "(strict gate, default 0.10)")
    bench_compare.add_argument("--time-ratio", type=float, default=1.25,
                               help="allowed median wall-time growth ratio")
    bench_compare.add_argument("--iqr-scale", type=float, default=3.0,
                               help="baseline IQRs of extra wall slack")
    bench_compare.add_argument("--strict-time", action="store_true",
                               help="escalate wall-time findings to failures")

    bench_report = bench_commands.add_parser(
        "report", help="markdown trend report from a directory of dumps")
    bench_report.add_argument("directory",
                              help="directory holding BENCH_*.json dumps")
    bench_report.add_argument("--pattern", default="BENCH_*.json")
    bench_report.add_argument("--out", default=None,
                              help="write the markdown here instead of stdout")

    bench_commands.add_parser("list", help="list registered workloads")

    runs = commands.add_parser(
        "runs",
        help="persistent run registry: list / show / diff / trend / gc")
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)

    def _add_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument("--dir", default=None, metavar="DIR",
                             help="registry root (default $REPRO_RUNS_DIR "
                                  "or .repro_runs)")

    runs_list = runs_commands.add_parser(
        "list", help="list recorded runs, oldest first")
    _add_dir(runs_list)
    runs_list.add_argument("--kind", default=None,
                           help="only this run kind "
                                "(train/profile/bench/experiment)")
    runs_list.add_argument("--limit", type=int, default=None,
                           help="show only the newest N runs")

    runs_show = runs_commands.add_parser(
        "show", help="one run's record, manifest, and counters")
    _add_dir(runs_show)
    runs_show.add_argument("run", help="run id (unique prefixes accepted)")

    runs_diff = runs_commands.add_parser(
        "diff", help="gate one run against another with the bench "
                     "compare engine")
    _add_dir(runs_diff)
    runs_diff.add_argument("baseline",
                           help="run id or BENCH_*.json path")
    runs_diff.add_argument("candidate",
                           help="run id or BENCH_*.json path")
    runs_diff.add_argument("--counter-tol", type=float, default=0.10,
                           help="relative tolerance on counter totals "
                                "(strict gate, default 0.10)")
    runs_diff.add_argument("--time-ratio", type=float, default=1.25,
                           help="allowed median wall-time growth ratio")
    runs_diff.add_argument("--iqr-scale", type=float, default=3.0,
                           help="baseline IQRs of extra wall slack")
    runs_diff.add_argument("--strict-time", action="store_true",
                           help="escalate wall-time findings to failures")

    runs_trend = runs_commands.add_parser(
        "trend", help="per-counter history with robust-z anomaly flags")
    _add_dir(runs_trend)
    runs_trend.add_argument("--kind", default=None,
                            help="only this run kind")
    runs_trend.add_argument("--counter", action="append", default=None,
                            metavar="NAME",
                            help="trend this counter (repeatable; default: "
                                 "the bench trend set + health.alerts)")
    runs_trend.add_argument("--limit", type=int, default=None,
                            help="only the newest N runs")
    runs_trend.add_argument("--threshold", type=float, default=3.0,
                            help="|robust z| at which a value is flagged "
                                 "(default 3.0)")

    runs_gc = runs_commands.add_parser(
        "gc", help="delete all but the newest runs")
    _add_dir(runs_gc)
    runs_gc.add_argument("--keep", type=int, required=True,
                         help="runs to keep (newest)")
    runs_gc.add_argument("--kind", default=None,
                         help="only collect runs of this kind")
    runs_gc.add_argument("--dry-run", action="store_true",
                         help="print what would be removed, remove nothing")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        from .experiments import EXPERIMENTS
        for name, runner in EXPERIMENTS.items():
            doc = (runner.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0

    if args.command == "run":
        return _run_experiment(args)

    if args.command == "datasets":
        import os
        from .data import PRESETS, save_dataset
        for name, maker in PRESETS.items():
            dataset = maker(seed=args.seed, scale=args.scale)
            directory = os.path.join(args.output, name)
            save_dataset(dataset, directory)
            print(f"wrote {directory}: {dataset.statistics()}")
        return 0

    if args.command == "profile":
        return _run_profile(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "bench":
        return _run_bench(args)

    if args.command == "runs":
        return _run_runs(args)

    # Defensive fallback: argparse rejects unknown subcommands itself, but
    # if a registered command ever goes unhandled we still fail loudly
    # instead of silently succeeding.
    parser.print_usage(sys.stderr)
    print(f"repro: unhandled command {args.command!r}", file=sys.stderr)
    return 2


def _recording(args: argparse.Namespace):
    """Context resolving the run registry + live exporter for a command.

    Yields the :class:`~repro.runstore.RunStore` to commit into (or
    ``None`` when recording is off).  While active:

    * the live Prometheus exporter runs when ``--serve-metrics`` or
      ``$REPRO_METRICS_PORT`` asks for it (left running if an outer
      command — e.g. ``repro trace`` around ``bench run`` — already
      started one);
    * trainer-level auto-commits are suppressed, so a command that fits
      models internally records exactly one run — its own.
    """
    import contextlib
    import os

    from . import runstore

    @contextlib.contextmanager
    def _context():
        store = runstore.active_store(getattr(args, "runs_dir", None))
        port = getattr(args, "serve_metrics", None)
        if port is None:
            env_port = os.environ.get(runstore.ENV_METRICS_PORT, "")
            if env_port:
                port = int(env_port)
        started = False
        if port is not None and runstore.active_exporter() is None:
            exporter = runstore.start_exporter(port)
            started = True
            print(f"[metrics {exporter.url}/metrics]", file=sys.stderr)
        try:
            with runstore.suppress_auto_commit():
                yield store
        finally:
            if started:
                runstore.stop_exporter()

    return _context()


def _run_experiment(args: argparse.Namespace) -> int:
    """``repro run``: one experiment runner, optionally registered."""
    import contextlib
    import os
    import time

    from . import telemetry
    from .experiments import EXPERIMENTS, PROFILES, active_profile

    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"choose from {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.workers is not None:
        # Experiment runners build their own TrainConfig instances;
        # the environment default is how the worker count reaches
        # every one of them (see repro.parallel.resolve_workers).
        os.environ["REPRO_NUM_WORKERS"] = str(args.workers)
    profile = PROFILES[args.profile] if args.profile else active_profile()

    with _recording(args) as store:
        # Recording implies instrumentation: the committed snapshot
        # needs the experiment.* / train.* counters populated.
        instrumented = (telemetry.enabled()
                        if store is not None or args.serve_metrics is not None
                        else contextlib.nullcontext())
        if store is not None:
            telemetry.reset()
        started = time.perf_counter()
        with instrumented:
            result = EXPERIMENTS[args.experiment](profile)
        wall = time.perf_counter() - started

        print(result.render())
        if args.output:
            path = result.save(args.output, args.experiment)
            print(f"[saved {path}]")

        if store is not None:
            metrics = {f"{row}.{column}": value
                       for row, cells in getattr(result, "rows", {}).items()
                       for column, value in cells.items()
                       if isinstance(value, (int, float))}
            manifest = telemetry.RunManifest(
                run=f"experiment:{args.experiment}",
                config={"profile": getattr(profile, "name", str(profile)),
                        "workers": args.workers},
                metrics=metrics)
            record = store.commit(
                "experiment", manifest,
                snapshot=telemetry.get_registry().snapshot(),
                wall_seconds=wall)
            print(f"[run {record.run_id} -> {store.root}]", file=sys.stderr)
    return 0


def _run_runs(args: argparse.Namespace) -> int:
    """``repro runs list|show|diff|trend|gc`` (docs/observability.md)."""
    import json
    import os
    import time

    from . import runstore
    from .bench import CompareConfig

    root = (args.dir or os.environ.get(runstore.ENV_RUNS_DIR, "")
            or runstore.DEFAULT_RUNS_DIR)
    store = runstore.RunStore(root)

    if args.runs_command == "list":
        records = store.records(kind=args.kind, limit=args.limit)
        if not records:
            print(f"no runs recorded in {store.root}")
            return 0
        for record in records:
            date = time.strftime("%Y-%m-%d %H:%M:%S",
                                 time.gmtime(record.created_unix))
            alerts = (f"{record.alerts} alert(s)" if record.alerts
                      else "healthy")
            print(f"{record.run_id:40s} {record.kind:10s} {date}  "
                  f"{record.wall_seconds:8.2f}s  {alerts}  {record.name}")
        return 0

    if args.runs_command == "show":
        try:
            record = store.get(args.run)
        except KeyError as error:
            print(f"repro runs show: {error.args[0]}", file=sys.stderr)
            return 2
        print(json.dumps(record.to_record(), indent=2, sort_keys=True))
        if store.has_file(record.run_id, "manifest.json"):
            print()
            print(json.dumps(store.load_manifest(record.run_id), indent=2,
                             sort_keys=True))
        return 0

    if args.runs_command == "diff":
        config = CompareConfig(
            counter_tol=args.counter_tol, time_ratio=args.time_ratio,
            iqr_scale=args.iqr_scale, strict_time=args.strict_time)
        try:
            base_label, cand_label, result = runstore.diff_runs(
                store, args.baseline, args.candidate, config)
        except (KeyError, OSError, ValueError) as error:
            message = error.args[0] if error.args else error
            print(f"repro runs diff: {message}", file=sys.stderr)
            return 2
        print(f"baseline  {base_label}")
        print(f"candidate {cand_label}")
        print(result.render())
        return 0 if result.passed else 1

    if args.runs_command == "trend":
        report = runstore.compute_trend(
            store, counters=args.counter, kind=args.kind,
            limit=args.limit, threshold=args.threshold)
        print(runstore.render_trend(report), end="")
        return 0

    if args.runs_command == "gc":
        try:
            removed = store.gc(keep=args.keep, kind=args.kind,
                               dry_run=args.dry_run)
        except ValueError as error:
            print(f"repro runs gc: {error.args[0]}", file=sys.stderr)
            return 2
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {len(removed)} run(s)"
              + (": " + ", ".join(removed) if removed else ""))
        return 0

    print(f"repro runs: unhandled subcommand {args.runs_command!r}",
          file=sys.stderr)
    return 2


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace``: flight-record another repro command.

    Re-enters :func:`main` with the remainder arguments inside
    :func:`repro.telemetry.capture_events`, then exports the captured
    event log as a Chrome/Perfetto trace (and, optionally, folded-stack
    flamegraph text).  The inner command's exit code is passed through.
    """
    from . import telemetry

    cmd = list(args.cmd)
    if cmd and cmd[0] == "--":      # `repro trace --out t.json -- profile`
        cmd = cmd[1:]
    if not cmd:
        print("repro trace: no command to record "
              "(usage: repro trace --out trace.json -- profile ...)",
              file=sys.stderr)
        return 2
    if cmd[0] == "trace":
        print("repro trace: refusing to nest trace inside trace",
              file=sys.stderr)
        return 2
    if telemetry.events_enabled():
        print("repro trace: an event log is already installed "
              "(nested flight recording)", file=sys.stderr)
        return 2

    capacity = args.capacity or _default_event_capacity()
    with telemetry.capture_events(capacity) as log:
        code = main(cmd)
    events = telemetry.write_chrome_trace(args.out, log,
                                          metadata={"cmd": cmd})
    print(f"[trace {args.out}: {events} trace events, "
          f"{log.dropped} dropped, {len(log.lanes())} lane(s)]",
          file=sys.stderr)
    if args.flame:
        lines = telemetry.write_folded_stacks(args.flame, log)
        print(f"[flame {args.flame}: {lines} stacks]", file=sys.stderr)
    return code


def _run_profile(args: argparse.Namespace) -> int:
    """``repro profile``: instrumented fit + evaluate on a tiny dataset."""
    import contextlib
    import dataclasses

    from . import telemetry
    from .core import KUCNetConfig, KUCNetRecommender, TrainConfig
    from .data import PRESETS, traditional_split
    from .eval import evaluate

    if args.dataset not in PRESETS:
        print(f"unknown dataset {args.dataset!r}; "
              f"choose from {sorted(PRESETS)}", file=sys.stderr)
        return 2
    if args.sink == "jsonl" and not args.out:
        print("--sink jsonl requires --out PATH", file=sys.stderr)
        return 2
    if args.flame_out and not args.trace_out:
        print("--flame-out requires --trace-out", file=sys.stderr)
        return 2

    health_policy = args.health_policy
    if args.health_out and health_policy is None:
        health_policy = "warn"

    dataset = PRESETS[args.dataset](seed=args.seed, scale=args.scale)
    split = traditional_split(dataset, seed=args.seed)
    model_config = KUCNetConfig(dim=16, depth=args.depth, seed=args.seed)
    train_config = TrainConfig(epochs=args.epochs, batch_users=16,
                               k=args.k, ppr_method=args.ppr_method,
                               num_workers=args.workers,
                               seed=args.seed,
                               ppr_store=args.store,
                               health_policy=health_policy)

    # --trace-out flight-records the run; when `repro trace` wraps this
    # command an event log is already installed and stays in charge.
    recorder = contextlib.nullcontext()
    if args.trace_out and not telemetry.events_enabled():
        recorder = telemetry.capture_events()

    import time as _time

    telemetry.reset()
    with _recording(args) as store, recorder as event_log, \
            telemetry.enabled():
        fit_started = _time.perf_counter()
        model = KUCNetRecommender(model_config, train_config)
        model.fit(split)
        result = evaluate(model, split, max_users=32, seed=args.seed,
                          num_workers=args.workers,
                          health=model.health_monitor)
        wall_seconds = _time.perf_counter() - fit_started

    manifest = telemetry.RunManifest(
        run=f"profile:{args.dataset}",
        seed=args.seed,
        config={"model": dataclasses.asdict(model_config),
                "train": dataclasses.asdict(train_config),
                "scale": args.scale},
        dataset=dataset.statistics(),
        metrics={"recall@20": result.recall, "ndcg@20": result.ndcg,
                 "eval_users": result.num_users},
    )

    monitor = model.health_monitor
    if store is not None:
        record = store.commit(
            "profile", manifest,
            snapshot=telemetry.get_registry().snapshot(),
            health_records=list(monitor.records()) if monitor else None,
            event_trace=(telemetry.to_chrome_trace(
                event_log, metadata={"cmd": ["profile", args.dataset]})
                if event_log is not None else None),
            wall_seconds=wall_seconds)
        print(f"[run {record.run_id} -> {store.root}]", file=sys.stderr)
    if event_log is not None:
        events = telemetry.write_chrome_trace(
            args.trace_out, event_log,
            metadata={"cmd": ["profile", args.dataset]})
        print(f"[trace {args.trace_out}: {events} trace events, "
              f"{event_log.dropped} dropped, "
              f"{len(event_log.lanes())} lane(s)]", file=sys.stderr)
        if args.flame_out:
            lines = telemetry.write_folded_stacks(args.flame_out, event_log)
            print(f"[flame {args.flame_out}: {lines} stacks]",
                  file=sys.stderr)
    if args.health_out:
        lines = telemetry.write_jsonl(
            args.health_out, manifest=manifest,
            extra_records=monitor.records() if monitor else None)
        print(f"[health {args.health_out}: {lines} records, "
              f"{monitor.alert_count if monitor else 0} alert(s)]",
              file=sys.stderr)

    if args.sink == "jsonl":
        extra = monitor.records() if monitor is not None else None
        lines = telemetry.write_jsonl(args.out, manifest=manifest,
                                      extra_records=extra)
        print(f"[wrote {args.out}: {lines} records]")
    else:
        print(manifest.to_json())
        print()
        print(telemetry.summary_table())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(manifest.to_json() + "\n\n")
                handle.write(telemetry.summary_table() + "\n")
            print(f"\n[saved {args.out}]")
    print(f"\n{result}", file=sys.stderr)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: quick-train a model, then serve it over HTTP.

    Preprocessing uses the push PPR backend with kept residuals so
    ``POST /interactions`` can maintain the scores incrementally; the
    live ``/metrics`` endpoint exposes the ``serve.*`` and
    ``ppr.incremental_pushes`` series the CI smoke job asserts on.
    """
    import time

    from . import telemetry
    from .core import KUCNetConfig, KUCNetRecommender, TrainConfig
    from .data import PRESETS, traditional_split
    from .serve import RecommendationServer, RecommendationService, ServeConfig

    if args.dataset not in PRESETS:
        print(f"unknown dataset {args.dataset!r}; "
              f"choose from {sorted(PRESETS)}", file=sys.stderr)
        return 2

    dataset = PRESETS[args.dataset](seed=args.seed, scale=args.scale)
    split = traditional_split(dataset, seed=args.seed)
    model_config = KUCNetConfig(dim=16, depth=args.depth, seed=args.seed)
    train_config = TrainConfig(epochs=max(args.epochs, 0), batch_users=16,
                               k=args.k, seed=args.seed, verbose=False,
                               ppr_method="push", ppr_store=args.store)
    recommender = KUCNetRecommender(model_config, train_config)

    # Serving is an always-instrumented command: scrapes of /metrics
    # must show request/cache/maintenance counters as they happen.
    telemetry.enable()
    telemetry.reset()
    print(f"[preparing {args.dataset} scale={args.scale} "
          f"epochs={args.epochs}]", file=sys.stderr)
    if args.epochs > 0:
        recommender.fit(split)
    else:
        recommender.prepare(split)
    service = RecommendationService.from_recommender(
        recommender, split,
        ServeConfig(top_k=args.top_k, cache_entries=args.cache_entries))
    server = RecommendationServer(service, port=args.port, host=args.host)
    try:
        port = server.start()
    except RuntimeError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    print(f"[serving {server.url} — POST /recommend {{users,k}}, "
          f"POST /interactions {{pairs}}, GET /metrics, GET /healthz]",
          file=sys.stderr)
    try:
        deadline = (time.monotonic() + args.max_seconds
                    if args.max_seconds is not None else None)
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """``repro bench run|compare|report|list`` (docs/benchmarking.md)."""
    from . import bench

    if args.bench_command == "list":
        for workload in bench.WORKLOADS.values():
            print(f"{workload.name:28s} {workload.description}")
        return 0

    if args.bench_command == "run":
        from . import telemetry

        config = bench.HarnessConfig(
            warmup=args.warmup, min_repeats=args.min_repeats,
            max_repeats=args.max_repeats,
            budget_seconds=args.budget_seconds)
        with _recording(args) as store:
            try:
                report = bench.run_suite(args.suite, names=args.workload,
                                         config=config, verbose=True)
            except KeyError as error:
                print(f"repro bench: {error.args[0]}", file=sys.stderr)
                return 2
            out = args.out or f"BENCH_{args.suite}.json"
            bench.save_report(report, out)
            print(f"[wrote {out}: {len(report['workloads'])} workloads, "
                  f"git {report['git_sha'][:10]}]")

            if store is not None:
                # One merged cross-workload snapshot, so `runs trend`
                # sees the suite's counters without opening bench.json.
                merged = telemetry.MetricsRegistry()
                for entry in report["workloads"].values():
                    merged.merge_snapshot(entry["telemetry"])
                manifest = telemetry.RunManifest.from_record(
                    report["manifest"])
                record = store.commit(
                    "bench", manifest, snapshot=merged.snapshot(),
                    bench_report=report,
                    wall_seconds=sum(
                        entry["median_seconds"]
                        for entry in report["workloads"].values()))
                print(f"[run {record.run_id} -> {store.root}]",
                      file=sys.stderr)
        return 0

    if args.bench_command == "compare":
        try:
            baseline = bench.load_report(args.baseline)
            candidate = bench.load_report(args.candidate)
        except (OSError, ValueError) as error:
            print(f"repro bench compare: {error}", file=sys.stderr)
            return 2
        config = bench.CompareConfig(
            counter_tol=args.counter_tol, time_ratio=args.time_ratio,
            iqr_scale=args.iqr_scale, strict_time=args.strict_time)
        result = bench.compare_reports(baseline, candidate, config)
        print(result.render())
        return 0 if result.passed else 1

    if args.bench_command == "report":
        text = bench.trend_report(args.directory, pattern=args.pattern)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"[wrote {args.out}]")
        else:
            print(text)
        return 0

    print(f"repro bench: unhandled subcommand {args.bench_command!r}",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())

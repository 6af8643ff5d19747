"""``BENCH_*.json`` artifacts: schema, provenance stamps, save/load.

One benchmark run serializes to a single JSON document (not JSONL — the
artifact is one object, diffed whole) with a versioned ``schema`` tag so
future readers can dispatch on format:

* ``schema`` — ``"repro.bench/1"``;
* ``suite`` / ``config`` — which workload suite ran, under which harness
  knobs (warmup, repeat policy);
* ``git_sha`` / ``machine`` / ``created_unix`` — where and when the
  numbers came from, so a dump found months later is self-describing;
* ``workloads`` — per-workload timing statistics (raw seconds, median,
  IQR) plus the full telemetry snapshot of one instrumented run;
* ``manifest`` — a :class:`~repro.telemetry.RunManifest` record tying
  the artifact into the same provenance convention as profile dumps.

Wall-clock numbers are machine-bound and noisy; the telemetry counters
are neither — they are the artifact's deterministic spine, and the
comparison engine (:mod:`.compare`) gates on them strictly.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Any, Dict, List, Optional

__all__ = ["SCHEMA", "SCHEMA_PREFIX", "git_sha", "machine_fingerprint",
           "save_report", "load_report", "validate_report"]

SCHEMA = "repro.bench/1"
SCHEMA_PREFIX = "repro.bench/"

#: numeric fields every per-workload entry must carry
_WORKLOAD_FIELDS = ("median_seconds", "iqr_seconds", "min_seconds",
                    "max_seconds", "repeats", "warmup")
_TELEMETRY_SECTIONS = ("spans", "counters", "gauges", "histograms")


def git_sha(cwd: Optional[str] = None) -> str:
    """HEAD SHA of the checkout holding ``cwd``, ``"unknown"`` outside one.

    ``cwd`` defaults to the imported ``repro`` package's directory, so a
    bench run or run-registry commit stamps the code that ran, not the
    checkout the process happened to start in.
    """
    if cwd is None:
        cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def machine_fingerprint() -> Dict[str, Any]:
    """Where the numbers came from: platform, interpreter, CPU count.

    Coarse by design — enough to tell a laptop dump from a CI dump when
    reading a trend report, not a hardware inventory.
    """
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 0,
    }


def save_report(report: Dict[str, Any], path: str) -> str:
    """Validate and write a report as pretty-printed JSON; returns ``path``."""
    validate_report(report)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict[str, Any]:
    """Read and validate a ``BENCH_*.json`` artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    validate_report(report)
    return report


def validate_report(report: Dict[str, Any]) -> None:
    """Raise ``ValueError`` listing every schema violation found."""
    problems: List[str] = []
    if not isinstance(report, dict):
        raise ValueError("bench report must be a JSON object")

    schema = report.get("schema")
    if not isinstance(schema, str) or not schema.startswith(SCHEMA_PREFIX):
        problems.append(f"schema must start with {SCHEMA_PREFIX!r}, "
                        f"got {schema!r}")
    for key, kind in (("suite", str), ("git_sha", str), ("machine", dict),
                      ("config", dict), ("workloads", dict)):
        if not isinstance(report.get(key), kind):
            problems.append(f"missing or mistyped top-level key {key!r} "
                            f"(want {kind.__name__})")
    if not isinstance(report.get("created_unix"), (int, float)):
        problems.append("missing or mistyped top-level key 'created_unix'")
    manifest = report.get("manifest")
    if not isinstance(manifest, dict) or manifest.get("record") != "manifest":
        problems.append("manifest must be a RunManifest record "
                        "(\"record\": \"manifest\")")

    workloads = report.get("workloads")
    if isinstance(workloads, dict):
        for name, entry in workloads.items():
            if not isinstance(entry, dict):
                problems.append(f"workload {name!r} entry is not an object")
                continue
            for field in _WORKLOAD_FIELDS:
                if not isinstance(entry.get(field), (int, float)):
                    problems.append(f"workload {name!r} missing numeric "
                                    f"field {field!r}")
            if not isinstance(entry.get("seconds"), list):
                problems.append(f"workload {name!r} missing raw 'seconds' "
                                "list")
            telem = entry.get("telemetry")
            if not isinstance(telem, dict) or any(
                    not isinstance(telem.get(s), dict)
                    for s in _TELEMETRY_SECTIONS):
                problems.append(f"workload {name!r} telemetry must hold the "
                                f"sections {_TELEMETRY_SECTIONS}")

    if problems:
        raise ValueError("invalid bench report:\n  " + "\n  ".join(problems))

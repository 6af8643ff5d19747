"""Comparison engine: counter gates, wall-time gates, trend reports.

Two artifacts are diffed with **dual gating**, because the two kinds of
number in a ``BENCH_*.json`` have opposite noise profiles:

* **Telemetry counters** (``ppr.push_ops``, ``autodiff.gather_rows``,
  ``graph.edges``, ``ppr.edges_kept``, …) are deterministic: the
  workloads pin every RNG, so a changed total means the *algorithm*
  changed — more pushes, more gathers, a bigger tape.  These gate
  **strictly** (small tolerance, exit-code failure) and catch
  algorithmic regressions even on the noisiest shared CI runner.
  ``autodiff.tape_bytes`` gates on its histogram **max** (peak memory
  held by one backward pass).
* **Wall times** are machine- and load-bound.  Their gate is
  noise-aware — a candidate median only trips it when it exceeds
  ``baseline_median * time_ratio + iqr_scale * IQR`` — and **advisory**
  (a warning) by default; ``strict_time`` upgrades it to a failure for
  dedicated hardware.

A counter *decrease* beyond tolerance is reported as a warning, not a
pass: the improvement is real, but the committed baseline no longer
describes the code and should be refreshed (``docs/benchmarking.md``).

``trend_report`` renders a directory of historical dumps as a markdown
trajectory — one table per workload, rows ordered by creation time.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .artifact import load_report, validate_report

__all__ = ["CompareConfig", "Finding", "CompareResult", "compare_reports",
           "trend_report", "GATED_HISTOGRAM_MAX"]

#: histograms whose *max* (peak value) gates strictly, like a counter
GATED_HISTOGRAM_MAX = ("autodiff.tape_bytes",)

#: counters surfaced in trend-report tables when present
_TREND_COUNTERS = ("ppr.push_ops", "ppr.sweeps", "ppr.edges_kept",
                   "ppr.incremental_pushes", "ppr.incremental_rows",
                   "graph.edges",
                   "serve.requests", "serve.cache_hits",
                   "autodiff.gather_rows",
                   "autodiff.segment_sum", "autodiff.fused_calls")


@dataclass(frozen=True)
class CompareConfig:
    """Gate thresholds (defaults tuned for shared CI runners)."""

    #: relative tolerance on deterministic counter totals
    counter_tol: float = 0.10
    #: wall-time ratio a candidate median may grow before the gate trips
    time_ratio: float = 1.25
    #: how many baseline IQRs of slack the wall gate adds on top
    iqr_scale: float = 3.0
    #: escalate wall-time findings from warning to failure
    strict_time: bool = False


@dataclass(frozen=True)
class Finding:
    """One gate observation: a failure or a warning."""

    workload: str
    gate: str            # "counter" | "histogram_max" | "time" | "structure"
    name: str
    severity: str        # "fail" | "warn"
    message: str
    baseline: Optional[float] = None
    candidate: Optional[float] = None


@dataclass
class CompareResult:
    """Every finding of one comparison plus coverage counts."""

    findings: List[Finding] = field(default_factory=list)
    workloads_compared: int = 0
    counters_compared: int = 0

    @property
    def failures(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "fail"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """Human-readable verdict, grouped by workload."""
        lines: List[str] = []
        by_workload: Dict[str, List[Finding]] = {}
        for finding in self.findings:
            by_workload.setdefault(finding.workload, []).append(finding)
        for workload in sorted(by_workload):
            lines.append(workload)
            for finding in by_workload[workload]:
                tag = "FAIL" if finding.severity == "fail" else "warn"
                lines.append(f"  [{tag}] {finding.gate:14s} "
                             f"{finding.name}: {finding.message}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: {self.workloads_compared} workloads, "
            f"{self.counters_compared} gated counters, "
            f"{len(self.failures)} failures, {len(self.warnings)} warnings")
        return "\n".join(lines)


def _gate_scalar(result: CompareResult, config: CompareConfig,
                 workload: str, gate: str, name: str,
                 base: float, cand: float) -> None:
    """Strict relative gate on one deterministic scalar."""
    result.counters_compared += 1
    if base == 0.0:
        if cand != 0.0:
            result.findings.append(Finding(
                workload=workload, gate=gate, name=name, severity="warn",
                baseline=base, candidate=cand,
                message=f"baseline 0, candidate {cand:g} — new activity; "
                        "refresh the baseline if intentional"))
        return
    ratio = cand / base
    if ratio > 1.0 + config.counter_tol:
        result.findings.append(Finding(
            workload=workload, gate=gate, name=name, severity="fail",
            baseline=base, candidate=cand,
            message=f"{base:g} -> {cand:g} ({ratio:.2f}x, "
                    f"tol {1.0 + config.counter_tol:.2f}x)"))
    elif ratio < 1.0 / (1.0 + config.counter_tol):
        result.findings.append(Finding(
            workload=workload, gate=gate, name=name, severity="warn",
            baseline=base, candidate=cand,
            message=f"{base:g} -> {cand:g} ({ratio:.2f}x) — improvement; "
                    "refresh the baseline so the gain is locked in"))


def compare_reports(baseline: Dict[str, Any], candidate: Dict[str, Any],
                    config: Optional[CompareConfig] = None) -> CompareResult:
    """Gate ``candidate`` against ``baseline``; see the module docstring."""
    config = config or CompareConfig()
    validate_report(baseline)
    validate_report(candidate)
    result = CompareResult()

    base_workloads = baseline["workloads"]
    cand_workloads = candidate["workloads"]

    for name in sorted(set(cand_workloads) - set(base_workloads)):
        result.findings.append(Finding(
            workload=name, gate="structure", name="workload", severity="warn",
            message="not in baseline — uncovered until the baseline is "
                    "refreshed"))

    for name in sorted(base_workloads):
        base_entry = base_workloads[name]
        cand_entry = cand_workloads.get(name)
        if cand_entry is None:
            result.findings.append(Finding(
                workload=name, gate="structure", name="workload",
                severity="fail",
                message="present in baseline but missing from candidate"))
            continue
        result.workloads_compared += 1

        # -- strict deterministic gates --------------------------------
        base_counters = base_entry["telemetry"]["counters"]
        cand_counters = cand_entry["telemetry"]["counters"]
        for counter_name in sorted(base_counters):
            cand_rec = cand_counters.get(counter_name)
            if cand_rec is None:
                result.findings.append(Finding(
                    workload=name, gate="counter", name=counter_name,
                    severity="fail",
                    baseline=float(base_counters[counter_name]["total"]),
                    message="counter disappeared from candidate"))
                continue
            _gate_scalar(result, config, name, "counter", counter_name,
                         float(base_counters[counter_name]["total"]),
                         float(cand_rec["total"]))
        for counter_name in sorted(set(cand_counters) - set(base_counters)):
            result.findings.append(Finding(
                workload=name, gate="counter", name=counter_name,
                severity="warn",
                candidate=float(cand_counters[counter_name]["total"]),
                message="counter absent from baseline — ungated until "
                        "refresh"))

        base_hists = base_entry["telemetry"]["histograms"]
        cand_hists = cand_entry["telemetry"]["histograms"]
        for hist_name in GATED_HISTOGRAM_MAX:
            base_rec = base_hists.get(hist_name)
            cand_rec = cand_hists.get(hist_name)
            if base_rec is None:
                continue
            if cand_rec is None:
                result.findings.append(Finding(
                    workload=name, gate="histogram_max", name=hist_name,
                    severity="fail", baseline=float(base_rec["max"]),
                    message="histogram disappeared from candidate"))
                continue
            _gate_scalar(result, config, name, "histogram_max", hist_name,
                         float(base_rec["max"]), float(cand_rec["max"]))

        # -- advisory noise-aware wall gate ----------------------------
        base_median = float(base_entry["median_seconds"])
        cand_median = float(cand_entry["median_seconds"])
        threshold = (base_median * config.time_ratio
                     + config.iqr_scale * float(base_entry["iqr_seconds"]))
        if cand_median > threshold:
            result.findings.append(Finding(
                workload=name, gate="time", name="median_seconds",
                severity="fail" if config.strict_time else "warn",
                baseline=base_median, candidate=cand_median,
                message=(f"{1e3 * base_median:.2f} ms -> "
                         f"{1e3 * cand_median:.2f} ms exceeds the "
                         f"noise-aware threshold {1e3 * threshold:.2f} ms "
                         f"({config.time_ratio:g}x median + "
                         f"{config.iqr_scale:g} IQR)")))

    return result


# ----------------------------------------------------------------------
# Trend report over a directory of historical dumps
# ----------------------------------------------------------------------

def _short_sha(sha: str) -> str:
    return sha[:10] if sha and sha != "unknown" else sha or "unknown"


def trend_report(directory: str, pattern: str = "BENCH_*.json") -> str:
    """Markdown trajectory from every ``BENCH_*.json`` under ``directory``.

    Invalid or foreign JSON files matching the pattern are listed as
    skipped rather than aborting the report.
    """
    paths = sorted(glob.glob(os.path.join(directory, pattern)))
    reports: List[Dict[str, Any]] = []
    skipped: List[str] = []
    for path in paths:
        try:
            report = load_report(path)
        except (ValueError, OSError, KeyError) as error:
            skipped.append(f"{os.path.basename(path)}: {error}")
            continue
        report["_path"] = os.path.basename(path)
        reports.append(report)
    reports.sort(key=lambda r: r.get("created_unix", 0.0))

    lines = ["# Benchmark trend report", ""]
    if not reports:
        lines.append(f"No valid `{pattern}` artifacts found in "
                     f"`{directory}`.")
        return "\n".join(lines) + "\n"
    lines.append(f"{len(reports)} artifacts from `{directory}`, oldest "
                 "first.  Wall numbers are machine-bound; counter columns "
                 "are deterministic.")
    lines.append("")

    workload_names = sorted({name for report in reports
                             for name in report["workloads"]})
    for workload in workload_names:
        rows = [(report, report["workloads"].get(workload))
                for report in reports]
        rows = [(report, entry) for report, entry in rows if entry]
        counters = [c for c in _TREND_COUNTERS
                    if any(c in entry["telemetry"]["counters"]
                           for _, entry in rows)]
        header = (["date", "sha", "suite", "median (ms)", "IQR (ms)"]
                  + counters)
        lines.append(f"## `{workload}`")
        lines.append("")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for report, entry in rows:
            date = time.strftime("%Y-%m-%d",
                                 time.gmtime(report.get("created_unix", 0)))
            cells = [date, _short_sha(report.get("git_sha", "")),
                     str(report.get("suite", "?")),
                     f"{1e3 * entry['median_seconds']:.2f}",
                     f"{1e3 * entry['iqr_seconds']:.2f}"]
            for counter_name in counters:
                rec = entry["telemetry"]["counters"].get(counter_name)
                cells.append(f"{rec['total']:g}" if rec else "-")
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")

    if skipped:
        lines.append("## Skipped files")
        lines.append("")
        for item in skipped:
            lines.append(f"- {item}")
        lines.append("")
    return "\n".join(lines)

"""Live metrics endpoint: a stdlib-only Prometheus text-format exporter.

Long precompute and training jobs are black boxes while they run — the
registry only becomes readable when the process writes its JSONL at the
end.  :class:`MetricsExporter` opens an opt-in HTTP endpoint serving

* ``/metrics``  — the live :class:`~repro.telemetry.MetricsRegistry`
  rendered in Prometheus exposition format (text/plain, version 0.0.4),
  so any scraper (or plain ``curl``) can watch ``train.*`` / ``ppr.*``
  counters climb mid-flight;
* ``/healthz``  — a JSON liveness probe carrying uptime, scrape count,
  the ``health.alerts`` total, and the age of the freshest snapshot.

Two sources feed a scrape:

1. the **live registry** — whatever the process has recorded since the
   last reset;
2. the **published cumulative registry** — phases that reset the live
   registry (the bench harness clears it per workload) push their final
   snapshots through :func:`publish_snapshot`, which folds them into an
   exporter-owned registry via ``MetricsRegistry.merge_snapshot``.  A
   scrape is the merge of both, so a mid-suite scrape still shows every
   completed workload's counters.

A **bounded background snapshot thread** samples the combined view every
``snapshot_interval`` seconds into a ring of ``max_snapshots`` entries;
scrapes serve the freshest sample (falling back to a synchronous
snapshot when the cache is stale), so a scrape never waits on a
contended registry lock, and ``/healthz`` can report how stale its view
is.  Everything is daemon-threaded stdlib ``http.server`` — no new
dependencies, and with no exporter started the only cost to the hot
path is one module-global ``is None`` check per published snapshot
(<2% on any workload; effectively zero).

One request costs bounded work: a POST body above
:data:`MAX_BODY_BYTES` is refused with 413 before any of it is read, a
malformed ``Content-Length`` gets 400, and a client that stalls for
:data:`REQUEST_TIMEOUT_SECONDS` (say, a body shorter than its declared
length) gets 408 instead of holding its handler thread forever.
"""

from __future__ import annotations

import collections
import errno
import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, Optional, Tuple

from ..telemetry import MetricsRegistry, get_registry

__all__ = ["ENV_METRICS_PORT", "MAX_BODY_BYTES", "REQUEST_TIMEOUT_SECONDS",
           "MetricsExporter", "render_prometheus",
           "validate_prometheus_text", "start_exporter", "stop_exporter",
           "active_exporter", "publish_snapshot"]

#: environment variable that auto-starts the exporter in CLI commands
ENV_METRICS_PORT = "REPRO_METRICS_PORT"

#: largest POST body a handler reads; a longer declared length gets 413
MAX_BODY_BYTES = 1 << 20

#: seconds a handler waits on a silent client socket (read at ``start``)
REQUEST_TIMEOUT_SECONDS = 10.0

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")

#: series synthesized at zero when absent, so scrapers can alert on
#: them without presence checks (an absent counter is indistinguishable
#: from a broken scrape otherwise)
_ALWAYS_PRESENT_COUNTERS = ("health.alerts",)


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric/label fragment for a dotted name."""
    return _NAME_SANITIZER.sub("_", name)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def render_prometheus(snapshot: Dict[str, Dict[str, Dict[str, Any]]],
                      extra_gauges: Optional[Dict[str, float]] = None) -> str:
    """Render a registry snapshot as Prometheus exposition text.

    Instrument names ride a ``name`` label on five stable families
    (``repro_counter_total``, ``repro_gauge``, ``repro_span_*``,
    ``repro_histogram_*``) instead of being mangled into metric names,
    so dashboards can aggregate across the whole dotted taxonomy.
    """
    lines = []

    def family(metric: str, kind: str, help_text: str,
               samples: Dict[str, float]) -> None:
        if not samples:
            return
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")
        for name in sorted(samples):
            value = float(samples[name])
            lines.append(f'{metric}{{name="{_escape_label(name)}"}} '
                         f"{value:.17g}")

    counters = {name: rec["total"] for name, rec
                in snapshot.get("counters", {}).items()}
    for name in _ALWAYS_PRESENT_COUNTERS:
        counters.setdefault(name, 0.0)
    family("repro_counter_total", "counter",
           "Telemetry counter totals (docs/observability.md).", counters)
    family("repro_gauge", "gauge", "Telemetry gauges (last written value).",
           {name: rec["value"] for name, rec
            in snapshot.get("gauges", {}).items()})

    spans = snapshot.get("spans", {})
    family("repro_span_seconds_total", "counter",
           "Inclusive wall seconds per span name.",
           {name: rec["total_seconds"] for name, rec in spans.items()})
    family("repro_span_calls_total", "counter", "Span completions.",
           {name: rec["count"] for name, rec in spans.items()})
    family("repro_span_errors_total", "counter",
           "Span exits via exception.",
           {name: rec.get("errors", 0) for name, rec in spans.items()})

    histograms = snapshot.get("histograms", {})
    family("repro_histogram_count", "gauge", "Histogram observation counts.",
           {name: rec["count"] for name, rec in histograms.items()})
    family("repro_histogram_sum", "gauge", "Histogram observation sums.",
           {name: rec["total"] for name, rec in histograms.items()})
    family("repro_histogram_max", "gauge",
           "Histogram maxima (peak values, e.g. autodiff.tape_bytes).",
           {name: rec["max"] for name, rec in histograms.items()})

    for name in sorted(extra_gauges or {}):
        metric = f"repro_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(extra_gauges[name]):.17g}")
    return "\n".join(lines) + "\n"


#: sample line: ``metric{labels} value [timestamp]``
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" [-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN)( [0-9]+)?$")
_TYPE_LINE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary|untyped)$")


def validate_prometheus_text(text: str) -> Dict[str, int]:
    """Validate exposition text; returns ``{"samples", "families"}`` counts.

    Checks every non-comment line against the text-format sample
    grammar and every ``# TYPE`` line against the known metric kinds.
    Raises :class:`ValueError` listing each malformed line — CI scrapes
    ``/metrics`` during the quick bench and runs this.
    """
    problems = []
    samples = 0
    families = 0
    if text and not text.endswith("\n"):
        problems.append("exposition text must end with a newline")
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE"):
            families += 1
            if not _TYPE_LINE.match(line):
                problems.append(f"line {number}: malformed TYPE comment "
                                f"{line!r}")
            continue
        if line.startswith("#"):
            continue
        if _SAMPLE_LINE.match(line):
            samples += 1
        else:
            problems.append(f"line {number}: malformed sample {line!r}")
    if not samples:
        problems.append("no samples found")
    if problems:
        raise ValueError("invalid Prometheus exposition text:\n  "
                         + "\n  ".join(problems))
    return {"samples": samples, "families": families}


class MetricsExporter:
    """Serve ``/metrics`` and ``/healthz`` from the live registry."""

    def __init__(self, port: int = 0, host: str = "127.0.0.1",
                 registry: Optional[MetricsRegistry] = None,
                 snapshot_interval: float = 1.0,
                 max_snapshots: int = 60):
        self.host = host
        self.port = int(port)
        self.registry = registry
        self.snapshot_interval = float(snapshot_interval)
        self._published = MetricsRegistry()
        self._snapshots: Deque[Tuple[float, Dict[str, Any]]] = \
            collections.deque(maxlen=max(1, int(max_snapshots)))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._server: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._snapshot_thread: Optional[threading.Thread] = None
        self._started_unix: Optional[float] = None
        self.scrapes = 0

    # -- data plane ----------------------------------------------------
    def publish(self, snapshot: Dict[str, Any]) -> None:
        """Fold a finished phase's snapshot into the cumulative registry."""
        self._published.merge_snapshot(snapshot)

    def combined_snapshot(self) -> Dict[str, Any]:
        """Published cumulative state + the live registry, merged."""
        merged = MetricsRegistry()
        merged.merge_snapshot(self._published.snapshot())
        merged.merge_snapshot((self.registry or get_registry()).snapshot())
        return merged.snapshot()

    def latest_snapshot(self) -> Tuple[float, Dict[str, Any]]:
        """The freshest cached sample, refreshed synchronously when stale."""
        now = time.time()
        with self._lock:
            if self._snapshots:
                taken, snapshot = self._snapshots[-1]
                if now - taken <= 2.0 * max(self.snapshot_interval, 0.05):
                    return taken, snapshot
        snapshot = self.combined_snapshot()
        with self._lock:
            self._snapshots.append((now, snapshot))
        return now, snapshot

    def render_metrics(self) -> str:
        taken, snapshot = self.latest_snapshot()
        uptime = (time.time() - self._started_unix
                  if self._started_unix else 0.0)
        return render_prometheus(snapshot, extra_gauges={
            "exporter_uptime_seconds": uptime,
            "exporter_scrapes_total": float(self.scrapes),
            "exporter_snapshot_age_seconds": max(0.0, time.time() - taken),
        })

    def healthz(self) -> Dict[str, Any]:
        taken, snapshot = self.latest_snapshot()
        alerts = snapshot.get("counters", {}).get("health.alerts",
                                                  {"total": 0.0})
        return {
            "status": "ok",
            "uptime_seconds": (time.time() - self._started_unix
                               if self._started_unix else 0.0),
            "scrapes": self.scrapes,
            "snapshot_age_seconds": max(0.0, time.time() - taken),
            "health_alerts": float(alerts.get("total", 0.0)),
        }

    # -- request routing (overridable by subclasses) -------------------
    def _handle_get(self, path: str) -> Optional[Tuple[int, str, bytes]]:
        """Route a GET; ``(status, content_type, body)`` or ``None`` = 404.

        Subclasses (e.g. the serving layer's ``RecommendationServer``)
        extend the endpoint set by overriding this and falling back to
        ``super()`` — the threading/bind/lifecycle plumbing is shared.
        """
        if path == "/metrics":
            self.scrapes += 1
            body = self.render_metrics().encode("utf-8")
            return 200, "text/plain; version=0.0.4; charset=utf-8", body
        if path == "/healthz":
            body = (json.dumps(self.healthz(), sort_keys=True)
                    + "\n").encode("utf-8")
            return 200, "application/json", body
        return None

    def _handle_post(self, path: str,
                     payload: bytes) -> Optional[Tuple[int, str, bytes]]:
        """Route a POST; the base exporter accepts none (``None`` = 404)."""
        return None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> int:
        """Bind and serve on daemon threads; returns the bound port.

        Port ``0`` binds an ephemeral port; the chosen port is recorded
        on ``self.port`` (and returned) so callers can report it.  A
        taken port raises a clear ``RuntimeError`` instead of leaking
        the raw ``OSError`` traceback.
        """
        if self._server is not None:
            return self.port
        exporter = self

        class _Handler(BaseHTTPRequestHandler):
            timeout = REQUEST_TIMEOUT_SECONDS

            def _reply(self, result: Optional[Tuple[int, str, bytes]]):
                if result is None:
                    result = (404, "text/plain", b"not found\n")
                status, content_type, body = result
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 — http.server API
                self._reply(exporter._handle_get(self.path.split("?", 1)[0]))

            def _refuse(self, status: int, message: str) -> None:
                # The body may be unread, so the connection cannot
                # carry another request.
                self.close_connection = True
                body = json.dumps({"error": message}) + "\n"
                self._reply((status, "application/json",
                             body.encode("utf-8")))

            def do_POST(self):  # noqa: N802 — http.server API
                declared = (self.headers.get("Content-Length") or "0").strip()
                if not (declared.isascii() and declared.isdigit()):
                    return self._refuse(
                        400, f"invalid Content-Length {declared!r}")
                length = int(declared)
                if length > MAX_BODY_BYTES:
                    return self._refuse(
                        413, f"body of {length} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte limit")
                try:
                    payload = self.rfile.read(length)
                except TimeoutError:
                    return self._refuse(
                        408, f"body not received within "
                             f"{self.timeout:g} s")
                if len(payload) < length:
                    return self._refuse(
                        400, f"body ended after {len(payload)} of "
                             f"{length} bytes")
                self._reply(exporter._handle_post(
                    self.path.split("?", 1)[0], payload))

            def log_message(self, fmt, *args):  # silence per-request noise
                pass

        try:
            self._server = ThreadingHTTPServer((self.host, self.port),
                                               _Handler)
        except OSError as error:
            if error.errno == errno.EADDRINUSE:
                raise RuntimeError(
                    f"cannot serve on {self.host}:{self.port}: port already "
                    f"in use — pass port 0 to bind an ephemeral port "
                    f"instead (the bound port is reported back)") from error
            raise
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._started_unix = time.time()
        self._stop.clear()
        self._serve_thread = threading.Thread(
            target=self._serve, args=(self._server,),
            name="repro-metrics-http", daemon=True)
        self._serve_thread.start()
        if self.snapshot_interval > 0:
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop, name="repro-metrics-snapshots",
                daemon=True)
            self._snapshot_thread.start()
        return self.port

    def _snapshot_loop(self) -> None:
        while not self._stop.wait(self.snapshot_interval):
            snapshot = self.combined_snapshot()
            with self._lock:
                self._snapshots.append((time.time(), snapshot))

    def _serve(self, server: ThreadingHTTPServer) -> None:
        # One blocking accept per pass with no poll timeout, so an idle
        # server never wakes; stop() wakes it with a loopback connection
        # and returns at once.
        while self._server is server:
            server.handle_request()

    def stop(self) -> None:
        self._stop.set()
        server, self._server = self._server, None
        if server is not None:
            # wake the accept in _serve (a refused connect means the
            # loop is already gone)
            host, port = server.server_address[:2]
            try:
                socket.create_connection(
                    ("127.0.0.1" if host == "0.0.0.0" else host, port),
                    timeout=1.0).close()
            except OSError:
                pass
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if server is not None:
            server.server_close()
        if self._snapshot_thread is not None:
            self._snapshot_thread.join(timeout=5.0)
            self._snapshot_thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


# ----------------------------------------------------------------------
# Process-wide singleton (what CLI commands and the bench harness use)
# ----------------------------------------------------------------------

_ACTIVE: Optional[MetricsExporter] = None


def active_exporter() -> Optional[MetricsExporter]:
    return _ACTIVE


def start_exporter(port: int, **kwargs: Any) -> MetricsExporter:
    """Start (or return) the process-wide exporter on ``port``."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    exporter = MetricsExporter(port=port, **kwargs)
    exporter.start()
    _ACTIVE = exporter
    return exporter


def stop_exporter() -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.stop()
        _ACTIVE = None


def publish_snapshot(snapshot: Optional[Dict[str, Any]]) -> None:
    """Hand a finished phase's registry snapshot to the live exporter.

    A single ``is None`` check when no exporter is running — safe to
    call from any hot-path boundary (the bench harness calls it once
    per workload).
    """
    if _ACTIVE is not None and snapshot is not None:
        _ACTIVE.publish(snapshot)

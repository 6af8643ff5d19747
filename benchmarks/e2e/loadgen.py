"""HTTP load against ``repro serve``: server processes and request loops.

:class:`ServerProcess` launches the shipped CLI, times launch → port
file written, reads the server's peak RSS and stops it.
:func:`open_loop` sends a request log on its schedule, one thread and
one connection at a time per stream, and times every request from the
moment it was *due*: a stall then counts against every request queued
behind it, and the generator's own lateness (sent − due) is recorded
alongside.  :func:`closed_loop` replays a log back to back, for the
traced pass.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from workloads import Request, serve_command

#: per-request socket timeout; a request that takes longer fails
REQUEST_TIMEOUT_S = 30.0
#: how long a launch may take to write its port file
LAUNCH_TIMEOUT_S = 150.0
#: head start that lets every stream thread reach its first due time
START_LEAD_S = 0.05


def call(port: int, path: str, payload: Optional[dict] = None) -> tuple:
    """``(status, body bytes)`` of one request on a fresh connection: a
    POST of ``payload`` as JSON, or a GET without one."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=REQUEST_TIMEOUT_S)
    try:
        if payload is None:
            connection.request("GET", path)
        else:
            connection.request("POST", path, body=json.dumps(payload),
                               headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _send(port: int, request: Request, due: float) -> dict:
    sent = time.perf_counter()
    status, body, error = 0, b"", None
    try:
        status, body = call(port, request.path, request.body)
    except (OSError, http.client.HTTPException) as exc:
        error = f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    return {"path": request.path, "payload": request.body, "status": status,
            "body": body, "error": error, "due": due, "sent": sent,
            "done": done}


def open_loop(port: int, log: Sequence[Request]) -> List[dict]:
    """Send ``log`` on schedule, one thread per stream; records in log order."""
    streams: Dict[int, List[int]] = {}
    for index, request in enumerate(log):
        streams.setdefault(request.stream, []).append(index)
    records: List[Optional[dict]] = [None] * len(log)
    start = time.perf_counter() + START_LEAD_S

    def run(indices: List[int]) -> None:
        for index in indices:
            due = start + log[index].due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            records[index] = _send(port, log[index], due)

    threads = [threading.Thread(target=run, args=(indices,), daemon=True)
               for indices in streams.values()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def closed_loop(port: int, log: Sequence[Request]) -> List[dict]:
    """Send ``log`` back to back; each request is due when it is sent."""
    return [_send(port, request, time.perf_counter()) for request in log]


_SAMPLE = re.compile(r'^(repro_[a-z_]+)\{name="([^"]+)"\} (\S+)$')


def parse_metrics(text: str) -> Dict[str, Dict[str, float]]:
    """``{family: {instrument: value}}`` from a Prometheus scrape."""
    families: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            family, name, value = match.groups()
            families.setdefault(family, {})[name] = float(value)
    return families


class ServerProcess:
    """One ``python -m repro serve`` child; use :meth:`launch`."""

    def __init__(self, process: subprocess.Popen, port: int, setup_s: float):
        self.process = process
        self.port = port
        #: launch → port file written, in seconds
        self.setup_s = setup_s

    @classmethod
    def launch(cls, spec, seed: int, work_dir: str) -> "ServerProcess":
        """Start ``repro serve`` for ``spec``; returns once it names its port."""
        port_file = os.path.join(work_dir, "port")
        log_path = os.path.join(work_dir, "serve.log")
        if os.path.exists(port_file):
            os.remove(port_file)
        with open(log_path, "wb") as log:
            started = time.perf_counter()
            process = subprocess.Popen(
                [sys.executable, "-m", *serve_command(spec, seed, port_file)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        try:
            port = _await_port(process, port_file, log_path, started)
        except BaseException:
            _terminate(process)
            raise
        return cls(process, port, time.perf_counter() - started)

    def scrape(self) -> Dict[str, Dict[str, float]]:
        status, body = call(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far, all threads."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3 of proc(5)): utime, stime follow
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        _terminate(self.process)


def _await_port(process: subprocess.Popen, port_file: str, log_path: str,
                started: float) -> int:
    while time.perf_counter() - started < LAUNCH_TIMEOUT_S:
        if process.poll() is not None:
            with open(log_path, encoding="utf-8", errors="replace") as log:
                tail = log.read()[-1000:]
            raise RuntimeError(
                f"server exited with code {process.returncode} before "
                f"writing its port file; its output ends:\n{tail}")
        try:
            with open(port_file, encoding="ascii") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (FileNotFoundError, ValueError):
            pass
        time.sleep(0.005)
    raise RuntimeError(f"server wrote no port file in {LAUNCH_TIMEOUT_S} s")


def _terminate(process: subprocess.Popen) -> None:
    """SIGINT (the CLI's clean shutdown), then SIGKILL; always reaped."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()

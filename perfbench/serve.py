"""The ``serve-interactive`` and ``serve-bulk`` workloads.

A freshly started ``repro serve`` (2 workers, no attempt timeout) runs in
its own process. One client process drives it in a closed loop with two
threads: every thread waits for its reply (``?wait=``) before sending
the next request. The measured window is cut into short rounds, with
the host-speed probe run between them while the server is idle. Like
``curl`` in CI's serve-smoke and ``urllib`` in the examples, each
request opens its own connection (``Connection: close``). A reused
keep-alive connection would add a ~40 ms stall per reply (the server
writes headers and body in two segments, and Nagle waits for the
client's delayed ACK); that is a finding about the server, not the
traffic its documented clients send.
"""

from __future__ import annotations

import http.client
import json
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from perfbench import inputs as shapes
from perfbench.probe import local_scales, probe
from perfbench.serve_main import SERVE_ARGS
from perfbench.stats import Outcomes

CLIENTS = 2
#: Untimed warm-up before the measured window, per client: fresh specs
#: enough to warm each worker's model memo past its steepest misses.
WARMUP_REQUESTS = 100
WARMUP_ENVELOPES = 3
#: Requests each client sends per measured round (a round takes about
#: half a second at the reference host speed).
ROUND_REQUESTS = {"interactive": 50, "bulk": 3}
#: Server-side wait per request; a reply still pending after it counts
#: as a failure (the job is not ``done``).
WAIT_S = 60.0
CLIENT_TIMEOUT_S = WAIT_S + 30.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` process: started, probed, measured, stopped."""

    def __init__(self, root: str, env: dict, spans_path: Optional[str] = None) -> None:
        if spans_path is None:
            cmd = [sys.executable, "-u", "-m", "repro.cli", *SERVE_ARGS]
        else:
            cmd = [sys.executable, "-u", "-m", "perfbench.serve_main", spans_path]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.port = self._read_port(t0 + START_TIMEOUT_S)
            self._wait_healthy(t0 + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_port(self, deadline: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        line = self.proc.stdout.readline() if ready else ""
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"server did not report its address: {line!r}")
        return int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.healthz():
                return
            time.sleep(0.002)
        raise RuntimeError("server never became healthy")

    def healthz(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# -- clients ------------------------------------------------------------------------


def _post(port: int, path: str, body: dict) -> Tuple[int, dict]:
    payload = json.dumps(body).encode("utf-8")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)
    try:
        conn.request("POST", path, body=payload,
                     headers={"Content-Type": "application/json",
                              "Connection": "close"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


@dataclass
class Phase:
    """What the clients saw in one window."""

    latencies_ms: List[float] = field(default_factory=list)
    #: the measured round each latency belongs to (-1 outside rounds)
    latency_rounds: List[int] = field(default_factory=list)
    overhead_ms: List[float] = field(default_factory=list)
    outcomes: Outcomes = field(default_factory=Outcomes)
    requests: int = 0
    items_ok: int = 0
    #: first and last instant of the window, and the time its rounds took
    start: float = 0.0
    end: float = 0.0
    seconds: float = 0.0
    #: Server VmHWM once ``min_requests`` replies arrived: the same
    #: amount of work on every run, however fast it went.
    peak_rss_mb: float = 0.0
    #: host-speed probe times, one before each round, and round times
    probe_s: List[float] = field(default_factory=list)
    round_s: List[float] = field(default_factory=list)
    #: job body (canonical JSON) -> digests the server returned for it
    settled: Dict[str, Set[str]] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def settle(self, body: dict, doc: dict) -> None:
        result = doc.get("result") if isinstance(doc, dict) else None
        if isinstance(result, dict):
            key = json.dumps(body, sort_keys=True)
            self.settled.setdefault(key, set()).add(result.get("digest"))

    def scaled(self) -> Tuple[List[float], float]:
        """Latencies at the reference host speed (each round's by the
        probes around it), and the rate of settled jobs they give."""
        factors = local_scales(self.probe_s)
        latencies = [ms * factors[r] for ms, r in zip(self.latencies_ms, self.latency_rounds)]
        seconds = sum(dt * f for dt, f in zip(self.round_s, factors))
        return latencies, self.items_ok / seconds


def send(port: int, bulk: bool, stream: shapes.JobStream, phase: Phase,
         fresh: bool) -> None:
    """One request (a single job, or one envelope in bulk mode), accounted
    into ``phase``."""
    if bulk:
        bodies = stream.envelope(shapes.ENVELOPE_SIZE)
        path, doc_in = f"/v1/jobs:batch?wait={WAIT_S}", {"jobs": bodies}
    else:
        bodies = [stream.fresh() if fresh else stream.next()]
        path, doc_in = f"/v1/jobs?wait={WAIT_S}", bodies[0]
    t0 = time.perf_counter()
    try:
        status, doc = _post(port, path, doc_in)
    except (OSError, http.client.HTTPException, ValueError):
        status, doc = None, None
    latency_ms = (time.perf_counter() - t0) * 1e3
    jobs = doc.get("jobs") if bulk and isinstance(doc, dict) else [doc]
    with phase.lock:
        phase.requests += 1
        failed_before = phase.outcomes.failed
        if bulk:
            phase.outcomes.record_envelope(status, doc, len(bodies))
        else:
            phase.outcomes.record_response(status, doc)
        phase.items_ok += len(bodies) - (phase.outcomes.failed - failed_before)
        if status is not None:
            phase.latencies_ms.append(latency_ms)
            phase.latency_rounds.append(len(phase.probe_s) - 1)
            own = [j.get("latency_s") for j in jobs or () if isinstance(j, dict)]
            own = [s for s in own if isinstance(s, (int, float))]
            if own:
                phase.overhead_ms.append(latency_ms - max(own) * 1e3)
        for body, job in zip(bodies, jobs or ()):
            phase.settle(body, job)


def drive(server: Server, stream: shapes.JobStream, bulk: bool, seconds: float,
          min_requests: int) -> Tuple[Phase, Phase]:
    """Warm up, then measure in rounds until ``seconds`` of rounds have
    passed and at least ``min_requests`` replies arrived. Returns
    (warm-up, measured).

    In a round every client sends ``ROUND_REQUESTS`` requests back to
    back; between rounds, while the server is idle, the host-speed probe
    runs once (``perfbench.probe``). Only the rounds are timed."""
    warm = Phase()
    measured = Phase()
    warmups = WARMUP_ENVELOPES if bulk else WARMUP_REQUESTS
    per_round = ROUND_REQUESTS["bulk" if bulk else "interactive"]

    def warm_up() -> None:
        for _ in range(warmups):
            send(server.port, bulk, stream, warm, fresh=True)

    def one_round() -> None:
        for _ in range(per_round):
            send(server.port, bulk, stream, measured, fresh=False)

    _run_clients(warm_up)
    server.healthz()
    measured.start = time.perf_counter()
    while measured.seconds < seconds or measured.requests < min_requests:
        measured.probe_s.append(probe())
        t0 = time.perf_counter()
        _run_clients(one_round)
        measured.round_s.append(time.perf_counter() - t0)
        measured.seconds += measured.round_s[-1]
        if not measured.peak_rss_mb and measured.requests >= min_requests:
            measured.peak_rss_mb = server.peak_rss_mb()
    measured.end = time.perf_counter()
    server.healthz()
    return warm, measured


def _run_clients(target) -> None:
    """``target`` on ``CLIENTS`` threads; the first error is re-raised."""
    errors: List[BaseException] = []

    def run() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

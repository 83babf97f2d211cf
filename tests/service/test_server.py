"""HTTP API round-trips against a live (ephemeral-port) server."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.oracle.differential import trace_digest
from repro.scenarios import get_engine
from repro.service.executor import ScenarioService, ServiceConfig
from repro.service.jobs import JobResult, JobSpec, RetryPolicy
from repro.service.server import make_server

WAIT = 60.0


@pytest.fixture()
def live_server():
    """(base_url, service) of a real server on a free port, torn down after."""

    def start(service: ScenarioService):
        server = make_server(service, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, service))
        return f"http://{host}:{port}"

    servers = []
    yield start
    for server, service in servers:
        server.shutdown()
        server.server_close()
        service.shutdown()


def request(method: str, url: str, body: dict = None):
    """(status, doc) for one JSON round-trip; HTTP errors decoded too."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=WAIT) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc), dict(exc.headers)


def scenario_doc(name: str) -> dict:
    return {
        "name": name,
        "kind": "barrier_loop",
        "works": [1.0e9, 2.0e9, 1.5e9, 3.0e9],
        "iterations": 2,
        "priorities": [[0, 4], [1, 6], [2, 4], [3, 6]],
    }


class TestEndToEnd:
    def test_served_digest_equals_direct_run(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=2)))
        body = {"scenario": scenario_doc("e2e"), "lane": "interactive"}
        status, doc, _ = request("POST", f"{base}/v1/jobs?wait={WAIT}", body)
        assert status == 200
        assert doc["state"] == "done", doc.get("error")
        scenario = JobSpec.from_doc(body).scenario
        direct = get_engine("fluid").run(
            scenario, label=f"oracle.{scenario.name}"
        ).run
        assert doc["result"]["digest"] == trace_digest(direct)
        assert doc["result"]["total_time"] == direct.total_time
        # The result document round-trips through the typed layer.
        assert JobResult.from_doc(doc["result"]).digest == trace_digest(direct)

        # Same spec again: served from the cache, same digest.
        status, doc2, _ = request("POST", f"{base}/v1/jobs?wait={WAIT}", body)
        assert status == 200
        assert doc2["source"] == "cache"
        assert doc2["result"]["digest"] == doc["result"]["digest"]

    def test_poll_with_get(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=2)))
        body = {"scenario": scenario_doc("poll")}
        status, doc, _ = request("POST", f"{base}/v1/jobs", body)
        assert status in (200, 202)
        job_id = doc["id"]
        deadline = time.perf_counter() + WAIT
        while time.perf_counter() < deadline:
            status, doc, _ = request("GET", f"{base}/v1/jobs/{job_id}")
            assert status == 200
            if doc["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert doc["state"] == "done", doc.get("error")
        assert doc["result"]["digest"]


class TestBatchEndpoint:
    def test_batch_digests_equal_individual_submits(self, live_server):
        batch_base = live_server(ScenarioService(ServiceConfig(workers=2)))
        single_base = live_server(ScenarioService(ServiceConfig(workers=2)))
        bodies = [
            {"scenario": scenario_doc(f"batch-{i}"), "lane": "batch"}
            for i in range(3)
        ]
        status, doc, _ = request(
            "POST", f"{batch_base}/v1/jobs:batch?wait={WAIT}",
            {"jobs": bodies},
        )
        assert status == 200
        assert doc["submitted"] == 3 and doc["errors"] == 0
        assert len(doc["jobs"]) == 3
        for body, entry in zip(bodies, doc["jobs"]):
            assert entry["state"] == "done", entry.get("error")
            status, single, _ = request(
                "POST", f"{single_base}/v1/jobs?wait={WAIT}", body
            )
            assert status == 200 and single["state"] == "done"
            assert entry["result"]["digest"] == single["result"]["digest"]
            assert entry["result"]["total_time"] == single["result"]["total_time"]

    def test_malformed_envelope_is_400(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        for body in ({"specs": []}, {"jobs": "nope"}, [1, 2], {}):
            status, doc, _ = request(
                "POST", f"{base}/v1/jobs:batch", body
            )
            assert status == 400 and "error" in doc

    def test_mixed_good_and_bad_entries_is_207_in_order(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=2)))
        status, doc, _ = request(
            "POST", f"{base}/v1/jobs:batch?wait={WAIT}",
            {"jobs": [
                {"scenario": scenario_doc("mix-good")},
                {"bogus": True},
                {"scenario": scenario_doc("mix-good-2")},
            ]},
        )
        assert status == 207
        assert doc["submitted"] == 2 and doc["errors"] == 1
        good_a, bad, good_b = doc["jobs"]
        assert good_a["state"] == "done" and good_b["state"] == "done"
        assert "error" in bad and "state" not in bad

    def test_empty_batch_round_trips(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        status, doc, _ = request(
            "POST", f"{base}/v1/jobs:batch", {"jobs": []}
        )
        assert status == 200
        assert doc == {"jobs": [], "submitted": 0, "errors": 0}


class TestProtocol:
    def test_healthz_and_metrics(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=3)))
        status, doc, _ = request("GET", f"{base}/healthz")
        assert status == 200
        assert doc["status"] == "ok" and doc["workers"] == 3
        status, metrics, _ = request("GET", f"{base}/metrics")
        assert status == 200
        for key in ("queue", "cache", "jobs", "counters", "latency"):
            assert key in metrics
        assert metrics["cache"]["entries"] == 0

    def test_kept_alive_connection_answers_without_a_delayed_ack_stall(
        self, live_server
    ):
        """Replies on a reused connection must not wait for the client's
        delayed ACK (a 40 ms floor on Linux) between header and body."""
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        host, port = base[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=WAIT)
        try:
            elapsed = []
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
                elapsed.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.020, elapsed

    def test_bad_requests(self, live_server):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        status, doc, _ = request("POST", f"{base}/v1/jobs", {"bogus": True})
        assert status == 400 and "error" in doc
        status, _doc, _ = request("POST", f"{base}/v1/jobs",
                                  {"suite": "metbench"})  # no case
        assert status == 400
        status, _doc, _ = request("GET", f"{base}/v1/jobs/job-missing")
        assert status == 404
        status, _doc, _ = request("GET", f"{base}/nothing/here")
        assert status == 404

    def test_more_ranks_than_the_chip_is_400_before_any_attempt(
        self, live_server
    ):
        base = live_server(ScenarioService(ServiceConfig(workers=1)))
        scenario = dict(scenario_doc("too-wide"), works=[1.0e9] * 8,
                        priorities=[])
        status, doc, _ = request(
            "POST", f"{base}/v1/jobs?wait={WAIT}", {"scenario": scenario}
        )
        assert status == 400 and "exceed the machine's 4 CPUs" in doc["error"]
        _status, metrics, _ = request("GET", f"{base}/metrics")
        assert metrics["counters"]["submitted"] == 0

    def test_backpressure_is_429_with_retry_after(self, live_server):
        release = threading.Event()

        def runner(specs):
            assert release.wait(WAIT)
            return [
                JobResult(
                    fingerprint=spec.fingerprint, digest="d" * 64,
                    label=spec.label, model=spec.model, total_time=1.0,
                    imbalance_percent=0.0, events_processed=1,
                    final_priorities=(4,), ranks=(), compute_seconds=0.001,
                )
                for spec in specs
            ]

        service = ScenarioService(
            ServiceConfig(workers=1, queue_depth=1,
                          retry=RetryPolicy(max_retries=0)),
            runner=runner,
        )
        base = live_server(service)
        try:
            statuses = []
            for i in range(8):  # distinct specs: no coalescing
                body = {"scenario": scenario_doc(f"bp-{i}")}
                status, doc, headers = request("POST", f"{base}/v1/jobs", body)
                statuses.append(status)
                if status == 429:
                    assert "Retry-After" in headers
                    assert int(headers["Retry-After"]) >= 0
                    assert "retry after" in doc["error"]
            assert 429 in statuses
            assert statuses[0] in (200, 202)
        finally:
            release.set()

    def test_cancel_via_delete(self, live_server):
        release = threading.Event()

        def runner(specs):
            assert release.wait(WAIT)
            return [
                JobResult(
                    fingerprint=spec.fingerprint, digest="d" * 64,
                    label=spec.label, model=spec.model, total_time=1.0,
                    imbalance_percent=0.0, events_processed=1,
                    final_priorities=(4,), ranks=(), compute_seconds=0.001,
                )
                for spec in specs
            ]

        # No coalescing: the victim must stay queued behind the blocker.
        service = ScenarioService(
            ServiceConfig(workers=1, max_batch_size=1), runner=runner
        )
        base = live_server(service)
        try:
            request("POST", f"{base}/v1/jobs",
                    {"scenario": scenario_doc("blocker")})
            _status, queued, _ = request(
                "POST", f"{base}/v1/jobs", {"scenario": scenario_doc("victim")}
            )
            status, doc, _ = request(
                "DELETE", f"{base}/v1/jobs/{queued['id']}"
            )
            assert status == 200
            assert doc["state"] == "cancelled"
            status, _doc, _ = request("DELETE", f"{base}/v1/jobs/nope")
            assert status == 404
        finally:
            release.set()

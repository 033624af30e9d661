"""HTTP API contracts over a real (ephemeral-port) server.

Each test spins up a :class:`ServiceHTTPServer` on port 0 against a
stub-executor manager, then exercises the route contracts through the
real :class:`ServiceClient` — the same transport the CLI and the
end-to-end benchmark use.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
import urllib.parse
import urllib.request

import pytest

import repro.obs as obs
from repro.obs.live import enable_live
from repro.service.client import ServiceClient, ServiceUnavailableError
from repro.service.http import ServiceHTTPServer, _Handler
from repro.service.jobs import JobState
from repro.service.manager import JobManager, ServiceConfig

from tests.service.test_manager import (
    BlockingExecutor,
    ImmediateExecutor,
    wait_for,
)


@pytest.fixture()
def immediate():
    executor = ImmediateExecutor()
    manager = JobManager(
        executor, ServiceConfig(max_queue_depth=4, concurrency=1, result_ttl_s=60.0)
    )
    with ServiceHTTPServer(manager, port=0) as server:
        yield ServiceClient(server.url), manager
    manager.drain(timeout_s=10.0)


@pytest.fixture()
def blocking():
    executor = BlockingExecutor()
    manager = JobManager(
        executor, ServiceConfig(max_queue_depth=1, concurrency=1, result_ttl_s=60.0)
    )
    with ServiceHTTPServer(manager, port=0) as server:
        yield ServiceClient(server.url), manager, executor
    executor.release.set()
    manager.drain(timeout_s=10.0)


class TestSubmitAndResult:
    def test_submit_roundtrip(self, immediate):
        client, _manager = immediate
        resp = client.submit({"workload": "apriori", "tenant": "t"})
        assert resp.status == 202
        assert resp.body["state"] == "QUEUED"
        job_id = resp.body["job_id"]

        final = client.wait(job_id, timeout_s=10.0)
        assert final.status == 200
        assert final.body["state"] == "SUCCEEDED"
        assert final.body["result"]["total_energy_j"] == 2.0
        assert final.body["run_s"] is not None

        status = client.status(job_id)
        assert status.status == 200
        assert status.body["spec"]["tenant"] == "t"

    def test_bad_spec_is_400(self, immediate):
        client, _manager = immediate
        assert client.submit({"workload": "nope"}).status == 400
        assert client.submit({"bogus_field": 1}).status == 400

    @pytest.mark.parametrize(
        "request_head, status",
        [
            ("POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n", 400),
            ("POST /v1/jobs HTTP/1.1\r\nContent-Length: -1\r\n", 400),
            ("POST /v1/jobs HTTP/1.1\r\nContent-Length: 1e3\r\n", 400),
            ("GET /live?since=inf HTTP/1.1\r\n", 200),
            ("GET /live?since=nan&timeout=nan HTTP/1.1\r\n", 200),
            ("GET /live?since=-inf&timeout=inf HTTP/1.1\r\n", 200),
        ],
        ids=["length-abc", "length-negative", "length-float", "since-inf", "nan", "neg-inf"],
    )
    def test_malformed_numbers_are_answered_not_dropped(
        self, immediate, request_head, status
    ):
        # Raw socket: urllib would never send these. The handler must
        # answer within a second (no traceback-and-drop, no blocking
        # read) and leave the server serving.
        client, _manager = immediate
        enable_live()
        url = urllib.parse.urlparse(client.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=1.0) as sock:
            sock.sendall(f"{request_head}Host: test\r\n\r\n".encode("ascii"))
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[:2] == [b"HTTP/1.1", str(status).encode()]
        assert client.healthz().status == 200

    def test_oversize_body_is_413_and_closes_the_connection(self, immediate):
        # The 413 leaves the claimed body unread, so the server must not
        # read on for a next request: it says so and hangs up.
        client, _manager = immediate
        url = urllib.parse.urlparse(client.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=2.0) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 2097152\r\n\r\n"
            )
            reply = sock.makefile("rb")
            status_line = reply.readline()
            headers = {}
            for line in iter(reply.readline, b"\r\n"):
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            reply.read(int(headers["content-length"]))
            assert status_line.split()[:2] == [b"HTTP/1.1", b"413"]
            assert headers.get("connection", "").lower() == "close"
            assert reply.read() == b""  # EOF, not a timeout
        assert client.healthz().status == 200

    def test_unknown_job_is_404(self, immediate):
        client, _manager = immediate
        assert client.status("job-missing").status == 404
        assert client.result("job-missing").status == 404
        assert client.cancel("job-missing").status == 404

    def test_result_before_terminal_is_409(self, blocking):
        client, _manager, executor = blocking
        resp = client.submit({})
        assert resp.status == 202
        assert executor.started.wait(timeout=5.0)
        pending = client.result(resp.body["job_id"])
        assert pending.status == 409
        assert pending.body["state"] in ("QUEUED", "RUNNING")
        executor.release.set()
        final = client.wait(resp.body["job_id"], timeout_s=10.0)
        assert final.body["state"] == "SUCCEEDED"

    def test_unknown_route_is_404(self, immediate):
        client, _manager = immediate
        assert client._request("GET", "/v1/nope").status == 404
        assert client._request("POST", "/v1/nope").status == 404

    def test_keep_alive_requests_do_not_wait_for_delayed_ack(self, immediate):
        # Headers and body go out as two writes; with Nagle on, a client
        # reusing one connection waits out the peer's delayed ACK
        # (~40 ms) on every request.
        client, _manager = immediate
        job_id = client.submit({}).body["job_id"]
        assert client.wait(job_id, timeout_s=10.0).body["state"] == "SUCCEEDED"
        url = urllib.parse.urlparse(client.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5.0)
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", f"/v1/jobs/{job_id}/result")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.5


class TestBackpressureOverHTTP:
    def test_429_with_retry_after_header(self, blocking):
        client, manager, executor = blocking
        first = client.submit({})
        assert first.status == 202
        assert executor.started.wait(timeout=5.0)
        assert client.submit({}).status == 202  # fills the depth-1 queue

        rejected = client.submit({})
        assert rejected.status == 429
        assert rejected.rejected
        assert rejected.body["state"] == "REJECTED"
        assert rejected.body["reject_reason"] == "queue_full"
        assert rejected.retry_after_s > 0
        assert float(rejected.headers["Retry-After"]) > 0
        assert manager.stats()["peak_queue_depth"] <= manager.config.max_queue_depth
        executor.release.set()


class TestCancelOverHTTP:
    def test_cancel_queued(self, blocking):
        client, manager, executor = blocking
        running = client.submit({})
        assert executor.started.wait(timeout=5.0)
        queued = client.submit({})
        resp = client.cancel(queued.body["job_id"])
        assert resp.status == 200
        assert resp.body["cancelled"] is True
        assert manager.get(queued.body["job_id"]).state is JobState.CANCELLED
        executor.release.set()
        final = client.wait(running.body["job_id"], timeout_s=10.0)
        assert final.body["state"] == "SUCCEEDED"


class TestOpsEndpoints:
    def test_healthz_and_stats(self, immediate):
        client, _manager = immediate
        health = client.healthz()
        assert health.status == 200
        assert health.body["status"] == "ok"
        assert health.body["accepting"] is True
        stats = client.stats()
        assert stats.body["config"]["max_queue_depth"] == 4

    def test_metrics_exposition(self, immediate):
        client, manager = immediate
        obs.enable()
        resp = client.submit({})
        client.wait(resp.body["job_id"], timeout_s=10.0)
        manager.drain(timeout_s=10.0)
        assert client.submit({}).status == 429
        with urllib.request.urlopen(client.base_url + "/metrics", timeout=5.0) as resp:
            text = resp.read().decode("utf-8")
        assert "repro_service_submitted_total" in text
        assert 'repro_service_jobs_total{state="SUCCEEDED"}' in text
        assert "repro_service_queue_wait_seconds" in text
        assert 'repro_service_rejected_total{reason="draining"}' in text

    def test_drain_endpoint_flips_health(self, immediate):
        client, manager = immediate
        resp = client.drain()
        assert resp.status == 202
        assert wait_for(lambda: not manager.stats()["accepting"])
        health = client.healthz()
        assert health.body["status"] == "draining"
        rejected = client.submit({})
        assert rejected.status == 429
        assert rejected.body["reject_reason"] == "draining"


class TestSubmitCLI:
    def test_repro_submit_waits_and_prints_result(self, immediate, capsys):
        client, _manager = immediate
        from repro.cli import main

        rc = main(
            [
                "submit",
                "--url",
                client.base_url,
                "--workload",
                "apriori",
                "--tenant",
                "cli",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert '"state": "SUCCEEDED"' in out

    def test_repro_submit_no_wait(self, immediate, capsys):
        client, _manager = immediate
        from repro.cli import main

        rc = main(["submit", "--url", client.base_url, "--no-wait"])
        assert rc == 0
        assert '"state": "QUEUED"' in capsys.readouterr().out


class TestConcurrentClients:
    def test_parallel_submitters_all_answered(self, immediate):
        client, manager = immediate
        # Every submit gets *a* response (202 or 429) — nothing hangs
        # or drops — and the queue stays bounded through the burst.
        results: list[int] = []
        lock = threading.Lock()

        def one(i):
            resp = client.submit({"seed": i % 3})
            with lock:
                results.append(resp.status)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
        assert len(results) == 12
        assert set(results) <= {202, 429}
        assert 202 in results
        assert manager.stats()["peak_queue_depth"] <= manager.config.max_queue_depth


@pytest.fixture()
def connections(monkeypatch):
    """Counts the TCP connections the server accepts (one handler
    ``setup`` per connection)."""
    accepted: list[int] = []
    setup = _Handler.setup

    def counting_setup(handler):
        accepted.append(1)
        setup(handler)

    monkeypatch.setattr(_Handler, "setup", counting_setup)
    return accepted


class TestClientTransport:
    def test_one_connection_carries_every_request(self, immediate, connections):
        client, _manager = immediate
        job_id = client.submit({}).body["job_id"]
        assert client.wait(job_id, timeout_s=10.0).body["state"] == "SUCCEEDED"
        for _ in range(10):
            assert client.status(job_id).status == 200
            assert client.result(job_id).status == 200
        assert client.submit({}).status == 202
        assert len(connections) == 1

    def test_connection_close_answer_makes_the_next_call_reconnect(
        self, immediate, connections
    ):
        client, _manager = immediate
        assert client.healthz().status == 200
        too_big = client._request("POST", "/v1/jobs", {"pad": "x" * (1 << 20)})
        assert too_big.status == 413
        assert too_big.headers["Connection"] == "close"
        assert len(connections) == 1
        assert client.healthz().status == 200
        assert client.healthz().status == 200
        assert len(connections) == 2

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_call_after_the_server_stopped_is_unavailable(self, method):
        manager = JobManager(ImmediateExecutor(), ServiceConfig(concurrency=1))
        server = ServiceHTTPServer(manager, port=0).start()
        client = ServiceClient(server.url, timeout_s=2.0)
        assert client.healthz().status == 200  # leaves a kept-alive connection
        server.stop()
        with pytest.raises(ServiceUnavailableError):
            client._request(method, "/v1/jobs" if method == "POST" else "/healthz", {})
        manager.drain(timeout_s=10.0)

    def test_threads_sharing_a_client_get_a_connection_each(
        self, immediate, connections
    ):
        client, _manager = immediate
        jobs = [client.submit({"seed": i}).body["job_id"] for i in range(2)]
        for job_id in jobs:
            client.wait(job_id, timeout_s=10.0)
        mixed: list[str] = []
        start = threading.Barrier(2)

        def poll(job_id):
            start.wait(timeout=5.0)
            for _ in range(40):
                body = client.status(job_id).body
                if body.get("job_id") != job_id:
                    mixed.append(f"{job_id} answered with {body}")

        threads = [threading.Thread(target=poll, args=(j,)) for j in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
        assert not mixed
        assert len(connections) == 3  # the main thread's plus one per poller

    def test_a_post_is_never_sent_twice(self, immediate, monkeypatch):
        client, _manager = immediate
        assert client.healthz().status == 200
        hits = {"POST": 0, "GET": 0}

        def hang_up(handler):
            # Read the request, then drop the connection unanswered.
            hits[handler.command] += 1
            handler.close_connection = True

        monkeypatch.setattr(_Handler, "_submit", hang_up)
        monkeypatch.setattr(_Handler, "_healthz", hang_up)
        with pytest.raises(ServiceUnavailableError):
            client.submit({})
        assert hits["POST"] == 1
        with pytest.raises(ServiceUnavailableError):
            client.healthz()
        assert hits["GET"] == 2  # a GET is retried once

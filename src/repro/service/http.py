"""Thin stdlib HTTP front end for the job service.

Zero new runtime dependencies: ``http.server.ThreadingHTTPServer``
handles each request on its own thread, and every handler is a few
milliseconds of queue/table work against the :class:`JobManager` — the
actual jobs run on the manager's worker threads, never on request
threads.

Routes (all bodies JSON):

====== ========================= ===========================================
POST   /v1/jobs                  submit a job spec → 202 (queued) or
                                 429 + ``Retry-After`` (rejected) or 400
GET    /v1/jobs/<id>             job status snapshot (404 unknown/expired)
GET    /v1/jobs/<id>/result      result payload (409 until terminal)
POST   /v1/jobs/<id>/cancel      cancel a queued job
POST   /v1/drain                 stop admission, drain in the background
GET    /healthz                  liveness + queue posture
GET    /v1/stats                 full manager stats
GET    /metrics                  Prometheus text exposition
GET    /live                     live-plane snapshot + event long-poll
                                 (503 until the live plane is enabled;
                                 ``?since=<seq>&timeout=<s>`` long-polls)
====== ========================= ===========================================
"""

from __future__ import annotations

import json
import logging
import math
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import repro.obs as obs
from repro.obs.live import active_plane
from repro.obs.log import get_logger, log_event
from repro.service.jobs import JobSpec, JobState
from repro.service.manager import JobManager

__all__ = ["ServiceHTTPServer"]

_log = get_logger(__name__)

_MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    # Set per-server via the factory in ServiceHTTPServer.
    manager: JobManager

    protocol_version = "HTTP/1.1"
    # Headers and body leave as two writes; with Nagle on, a client that
    # reuses the connection waits out its delayed ACK (~40 ms) per request.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    def parse_request(self) -> bool:
        if self.server.stopped.is_set():
            # A request that reached a kept-alive connection after the
            # stop is dropped unanswered, as a closed port would.
            self.close_connection = True
            return False
        return super().parse_request()

    def log_message(self, fmt: str, *args: Any) -> None:
        log_event(
            _log, logging.DEBUG, "service.http",
            client=self.client_address[0], line=fmt % args,
        )

    def _send_json(
        self, status: int, payload: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any] | None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot be
            # reused; reading on would block until the client hangs up.
            self.close_connection = True
            self._send_json(
                400, {"error": "Content-Length must be a non-negative integer"}
            )
            return None
        if length > _MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry a
            # next request; "Connection: close" also sets close_connection.
            self._send_json(
                413, {"error": "request body too large"}, headers={"Connection": "close"}
            )
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except ValueError:
            self._send_json(400, {"error": "request body is not valid JSON"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "request body must be a JSON object"})
            return None
        return payload

    # -- routes -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["v1", "jobs"]:
            return self._submit()
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "cancel":
            return self._cancel(parts[2])
        if parts == ["v1", "drain"]:
            return self._drain()
        self._send_json(404, {"error": f"no such route POST {self.path}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            return self._healthz()
        if parts == ["metrics"]:
            return self._metrics()
        if parts == ["live"]:
            return self._live()
        if parts == ["v1", "stats"]:
            return self._send_json(200, self.manager.stats())
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            return self._status(parts[2])
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            return self._result(parts[2])
        self._send_json(404, {"error": f"no such route GET {self.path}"})

    def _submit(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        try:
            spec = JobSpec.from_dict(payload)
        except (TypeError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        record = self.manager.submit(spec)
        if record.state is JobState.REJECTED:
            retry = record.retry_after_s or 0.0
            self._send_json(
                429,
                record.snapshot(),
                headers={"Retry-After": f"{max(retry, 0.0):.3f}"},
            )
            return
        self._send_json(202, record.snapshot())

    def _status(self, job_id: str) -> None:
        record = self.manager.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"unknown (or expired) job {job_id!r}"})
            return
        self._send_json(200, record.snapshot())

    def _result(self, job_id: str) -> None:
        record = self.manager.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"unknown (or expired) job {job_id!r}"})
            return
        if not record.done:
            self._send_json(
                409,
                {"error": "job is not finished", "state": record.state.value},
            )
            return
        self._send_json(
            200,
            {
                "job_id": record.job_id,
                "state": record.state.value,
                "result": record.result,
                "error": record.error,
                "queue_wait_s": record.queue_wait_s,
                "run_s": record.run_s,
            },
        )

    def _cancel(self, job_id: str) -> None:
        record = self.manager.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"unknown (or expired) job {job_id!r}"})
            return
        cancelled = self.manager.cancel(job_id)
        self._send_json(
            200, {"job_id": job_id, "cancelled": cancelled, "state": record.state.value}
        )

    def _drain(self) -> None:
        threading.Thread(
            target=self.manager.drain, name="repro-service-drain", daemon=True
        ).start()
        self._send_json(202, {"draining": True})

    def _healthz(self) -> None:
        stats = self.manager.stats()
        self._send_json(
            200,
            {
                "status": "ok" if stats["accepting"] else "draining",
                "queue_depth": stats["queue_depth"],
                "running": stats["running"],
                "accepting": stats["accepting"],
            },
        )

    def _live(self) -> None:
        plane = active_plane()
        if plane is None:
            self._send_json(
                503,
                {
                    "error": "live telemetry plane is not enabled "
                    "(start the service with --live / enable_live())"
                },
            )
            return
        query = urllib.parse.parse_qs(urllib.parse.urlparse(self.path).query)

        def _number(key: str, default: float) -> float:
            try:
                value = float(query[key][0])
            except (KeyError, IndexError, ValueError):
                return default
            return value if math.isfinite(value) else default

        since = int(_number("since", 0))
        # Long-poll bounded well under typical client timeouts; 0 means
        # answer immediately with whatever is buffered.
        timeout_s = min(max(_number("timeout", 0.0), 0.0), 30.0)
        events = plane.bus.wait_for(since, timeout_s=timeout_s, limit=500)
        stats = self.manager.stats()
        self._send_json(
            200,
            {
                "seq": plane.bus.last_seq,
                "events": events,
                "snapshot": plane.snapshot(),
                "queue": {
                    "queue_depth": stats["queue_depth"],
                    "running": stats["running"],
                    "accepting": stats["accepting"],
                },
            },
        )

    def _metrics(self) -> None:
        body = obs.render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _TrackingServer(ThreadingHTTPServer):
    """Remembers its open connections so :meth:`ServiceHTTPServer.stop`
    can end the idle keep-alive ones; otherwise a client's kept
    connection would still be served after the stop."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.stopped = threading.Event()
        self._open_lock = threading.Lock()
        self._open: set[socket.socket] = set()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """Refuse further requests and shut the read side of every open
        connection: a handler waiting for the next request reads EOF and
        hangs up, while one mid-response still finishes it."""
        self.stopped.set()
        with self._open_lock:
            open_now = list(self._open)
        for sock in open_now:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler


class ServiceHTTPServer:
    """Owns a :class:`ThreadingHTTPServer` bound to a manager.

    ``port=0`` binds an ephemeral port (tests, the end-to-end benchmark);
    :attr:`url` reports the resolved address either way.
    """

    def __init__(self, manager: JobManager, host: str = "127.0.0.1", port: int = 8642):
        handler = type("BoundHandler", (_Handler,), {"manager": manager})
        self.manager = manager
        self._httpd = _TrackingServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceHTTPServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-service-http",
                daemon=True,
            )
            self._thread.start()
            log_event(_log, logging.INFO, "service.http.started", url=self.url)
        return self

    def serve_forever(self) -> None:
        """Blocking serve (the ``repro serve`` foreground path)."""
        log_event(_log, logging.INFO, "service.http.serving", url=self.url)
        self._httpd.serve_forever(poll_interval=0.05)

    def stop(self) -> None:
        """Stop accepting connections and end the kept-alive ones (does
        not drain the manager)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.end_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceHTTPServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

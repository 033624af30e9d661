"""Tiny stdlib client for the service HTTP API.

Used by ``repro submit`` and the end-to-end benchmark; kept
dependency-free (``http.client``) like the rest of the repo. Each
calling thread keeps one HTTP/1.1 connection to the service and reuses
it for every request, so a poll costs one round trip, not a TCP
handshake plus a round trip. A 429
backpressure response is **not** an exception — it comes back as a
normal :class:`ServiceResponse` with ``status == 429`` and the
``retry_after_s`` hint, because rejected-with-hint is an expected
answer under load, not a client error.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ServiceResponse", "ServiceClient", "ServiceUnavailableError"]


class ServiceUnavailableError(ConnectionError):
    """The service endpoint could not be reached at all."""


@dataclass
class ServiceResponse:
    """One HTTP exchange: status code + parsed JSON body + headers."""

    status: int
    body: dict[str, Any]
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def rejected(self) -> bool:
        return self.status == 429

    @property
    def retry_after_s(self) -> float | None:
        value = self.body.get("retry_after_s")
        if value is not None:
            return float(value)
        header = self.headers.get("Retry-After")
        return None if header is None else float(header)


def _hung_up(sock: socket.socket | None) -> bool:
    """An idle keep-alive socket has nothing to read unless the server
    closed it (EOF or reset), so a readable one is dead."""
    if sock is None:
        return True
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _response(status: int, raw: bytes, headers: dict[str, str]) -> ServiceResponse:
    if 200 <= status < 300:
        return ServiceResponse(status, json.loads(raw.decode("utf-8") or "{}"), headers)
    # 4xx/5xx still carry a JSON body (rejections, 404s, ...).
    text = raw.decode("utf-8", errors="replace")
    try:
        body = json.loads(text or "{}")
    except ValueError:
        body = {"error": text}
    return ServiceResponse(status, body, headers)


class ServiceClient:
    """Blocking JSON client bound to one service base URL.

    Thread-safe: every thread gets its own connection, so two threads
    never interleave requests on one socket.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        url = urllib.parse.urlsplit(self.base_url)
        self._host = url.hostname or "localhost"
        self._port = url.port or 80
        self._prefix = url.path
        self._local = threading.local()

    # -- transport ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, opened now if it has none or the
        server closed it while it sat idle."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and _hung_up(conn.sock):
            self.close()
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout_s
            )
            conn.connect()
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close the calling thread's connection (the next request opens
        a new one)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> ServiceResponse:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        # One retry, and only where a repeat cannot run anything twice:
        # nothing was sent yet, or the request is an idempotent GET.
        for _ in range(2):
            try:
                conn = self._connection()
            except OSError as exc:
                error: Exception = exc
                continue
            try:
                try:
                    conn.request(method, self._prefix + path, body=data, headers=headers)
                except (BrokenPipeError, ConnectionResetError):
                    # The server may have answered and hung up before
                    # reading the whole body (a 413): read that answer.
                    pass
                resp = conn.getresponse()
                raw = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                error = exc
                if method == "GET":
                    continue
                break
            if resp.will_close:
                self.close()
            return _response(resp.status, raw, dict(resp.headers.items()))
        raise ServiceUnavailableError(
            f"service at {self.base_url} unreachable: {error}"
        ) from error

    # -- API ----------------------------------------------------------------

    def submit(self, spec: dict[str, Any]) -> ServiceResponse:
        return self._request("POST", "/v1/jobs", spec)

    def status(self, job_id: str) -> ServiceResponse:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> ServiceResponse:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> ServiceResponse:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def drain(self) -> ServiceResponse:
        return self._request("POST", "/v1/drain")

    def healthz(self) -> ServiceResponse:
        return self._request("GET", "/healthz")

    def stats(self) -> ServiceResponse:
        return self._request("GET", "/v1/stats")

    def wait(
        self, job_id: str, timeout_s: float = 60.0, poll_s: float = 0.05
    ) -> ServiceResponse:
        """Poll until the job reaches a terminal state; returns the
        final ``/result`` response (409 never escapes unless timed out)."""
        deadline = time.monotonic() + timeout_s
        while True:
            resp = self.result(job_id)
            if resp.status != 409:
                return resp
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {resp.body.get('state')} after {timeout_s}s"
                )
            time.sleep(poll_s)

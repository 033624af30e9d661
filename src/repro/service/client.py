"""Tiny urllib client for the service HTTP API.

Used by ``repro submit`` and the end-to-end benchmark; kept
dependency-free (``urllib.request``) like the rest of the repo. A 429
backpressure response is **not** an exception — it comes back as a
normal :class:`ServiceResponse` with ``status == 429`` and the
``retry_after_s`` hint, because rejected-with-hint is an expected
answer under load, not a client error.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
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


class ServiceClient:
    """Blocking JSON client bound to one service base URL."""

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- transport ----------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> ServiceResponse:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return ServiceResponse(
                    status=resp.status,
                    body=json.loads(resp.read().decode("utf-8") or "{}"),
                    headers=dict(resp.headers.items()),
                )
        except urllib.error.HTTPError as exc:
            # 4xx/5xx still carry a JSON body (rejections, 404s, ...).
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                body = json.loads(raw or "{}")
            except ValueError:
                body = {"error": raw}
            return ServiceResponse(
                status=exc.code, body=body, headers=dict(exc.headers.items())
            )
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"service at {self.base_url} unreachable: {exc.reason}"
            ) from exc

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

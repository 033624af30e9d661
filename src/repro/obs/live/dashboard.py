"""``repro obs top`` — a refreshing ASCII dashboard over ``GET /live``.

Pure presentation: :func:`fetch_live` pulls one long-poll snapshot from
a running service, :func:`render_dashboard` turns it into fixed-width
text (per-node rates and watts, tenant ledger, SLO burn states, queue
posture), and :func:`run_top` loops the two with an ANSI clear between
frames. Everything renders from the JSON payload alone, so the same
renderer works on a captured snapshot file (the CI artifact).
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any

__all__ = ["fetch_live", "render_dashboard", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


def fetch_live(
    url: str, since: int = 0, timeout_s: float = 0.0
) -> dict[str, Any]:
    """GET ``/live`` from a service at ``url``; returns the payload."""
    query = urllib.parse.urlencode({"since": since, "timeout": timeout_s})
    target = f"{url.rstrip('/')}/live?{query}"
    with urllib.request.urlopen(target, timeout=timeout_s + 10.0) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _fmt(value: Any, width: int, precision: int = 1) -> str:
    if isinstance(value, float):
        return f"{value:>{width}.{precision}f}"
    return f"{value!s:>{width}}"


def _nodes_section(nodes: list[dict]) -> list[str]:
    lines = [
        f"{'NODE':<6}{'items/s':>12}{'watts':>10}{'green W':>10}"
        f"{'dirty W':>10}{'samples':>9}"
    ]
    if not nodes:
        return lines + ["  (no task samples yet)"]
    for node in nodes:
        lines.append(
            f"{node['node_id']:<6}"
            f"{_fmt(node['throughput_items_per_s'], 12)}"
            f"{_fmt(node['power_w'], 10)}"
            f"{_fmt(node['green_power_w'], 10)}"
            f"{_fmt(node['dirty_power_w'], 10)}"
            f"{_fmt(node['samples'], 9)}"
        )
    return lines


def _tenants_section(tenants: dict[str, dict]) -> list[str]:
    lines = [
        f"{'TENANT':<16}{'energy J':>12}{'green J':>12}{'dirty J':>12}{'tasks':>7}"
    ]
    if not tenants:
        return lines + ["  (no charges yet)"]
    for name, account in tenants.items():
        lines.append(
            f"{name[:15]:<16}"
            f"{_fmt(account['energy_j'], 12)}"
            f"{_fmt(account['green_j'], 12)}"
            f"{_fmt(account['dirty_j'], 12)}"
            f"{_fmt(account['tasks'], 7)}"
        )
    return lines


def _slo_section(slo: dict[str, dict]) -> list[str]:
    lines = [
        f"{'SLO':<18}{'state':>9}{'fast':>8}{'slow':>8}{'threshold':>12}"
    ]
    if not slo:
        return lines + ["  (no objectives configured)"]
    marker = {"ok": " ", "warn": "!", "burning": "*"}
    for name, status in slo.items():
        lines.append(
            f"{name[:17]:<18}"
            f"{marker.get(status['state'], '?') + status['state']:>9}"
            f"{_fmt(status['fast_burn'], 8, 2)}"
            f"{_fmt(status['slow_burn'], 8, 2)}"
            f"{_fmt(status['threshold'], 10)} {status.get('unit', '')}"
        )
    return lines


def _queue_section(queue: dict[str, Any]) -> list[str]:
    if not queue:
        return []
    return [
        "QUEUE  depth {depth}  running {running}  accepting {accepting}".format(
            depth=queue.get("queue_depth", "?"),
            running=queue.get("running", "?"),
            accepting=queue.get("accepting", "?"),
        )
    ]


def render_dashboard(payload: dict[str, Any], source: str = "") -> str:
    """One dashboard frame from a ``/live`` payload."""
    snapshot = payload.get("snapshot", {})
    bus = snapshot.get("bus", {})
    header = (
        f"repro live{' · ' + source if source else ''}"
        f" · seq {payload.get('seq', 0)}"
        f" · bus {bus.get('buffered', 0)}/{bus.get('capacity', 0)}"
        f" (dropped {bus.get('dropped', 0)})"
    )
    sections = [
        [header, "=" * len(header)],
        _nodes_section(snapshot.get("nodes", [])),
        _tenants_section(snapshot.get("tenants", {})),
        _slo_section(snapshot.get("slo", {})),
        _queue_section(payload.get("queue", {})),
    ]
    return "\n".join("\n".join(s) for s in sections if s) + "\n"


def run_top(
    url: str,
    once: bool = False,
    interval: float = 1.0,
    duration: float | None = None,
) -> int:
    """The ``repro obs top`` loop; returns a process exit code."""
    since = 0
    deadline = None if duration is None else time.monotonic() + duration
    while True:
        try:
            payload = fetch_live(url, since=since, timeout_s=0.0 if once else interval)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"repro obs top: cannot reach {url}/live: {exc}", file=sys.stderr)
            return 1
        since = int(payload.get("seq", since))
        frame = render_dashboard(payload, source=url)
        if once:
            print(frame, end="")
            return 0
        print(_CLEAR + frame, end="", flush=True)
        if deadline is not None and time.monotonic() >= deadline:
            return 0
        time.sleep(interval)

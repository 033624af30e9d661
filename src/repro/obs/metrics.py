"""In-process metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` holds every instrument, keyed by
``(name, sorted label pairs)`` so labelled families (per-node
latencies, per-engine pool counts) are one get-or-create call at the
recording site::

    REG.counter("repro_tasks_total", node="3").inc()
    REG.histogram("repro_task_runtime_seconds", node="3").observe(0.12)

Snapshots are plain dicts (JSON-ready) and :meth:`render_prometheus`
emits the text exposition format, so a scrape endpoint or a file dump
are both one-liners. Everything is thread-safe; instruments are
lock-free on the hot path except histograms (one ``threading.Lock``
per instrument, held for two additions).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Seconds buckets spanning sub-millisecond no-op checks to multi-minute
#: jobs; the trailing +inf bucket is implicit in the exposition.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    if len(labels) == 1:  # most series: one label, nothing to sort
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    # Prometheus text exposition: backslash, double-quote and newline
    # must be escaped inside label values (\\, \", \n) or the line
    # becomes unparseable.
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labels: _LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down: the last one :meth:`set`."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative-bucket exposition.

    ``bounds`` are the upper edges of each bucket, ascending; an
    implicit +inf bucket catches the tail. ``observe`` is O(#buckets)
    — fine for the few-dozen-bucket defaults.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "total", "count", "_lock")

    def __init__(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labels: _LabelKey = (),
    ):
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 for +inf
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create registry for every instrument in the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, _LabelKey], Any] = {}

    def _get(self, cls, name: str, labels: dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        # Deliberate lock-free fast path: instruments are never removed
        # outside reset(), so a hit here is safe under CPython's atomic
        # dict reads, and the hot inc()/observe() callers skip the lock.
        # repro: noqa[GUARD-CONSISTENCY]
        found = self._metrics.get(key)
        if found is not None:
            if not isinstance(found, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(found).__name__}"
                )
            return found
        with self._lock:
            found = self._metrics.get(key)
            if found is None:
                found = cls(name, labels=key[1], **kwargs)
                self._metrics[key] = found
            return found

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def reset(self) -> None:
        """Drop every instrument (tests, or a fresh measurement run)."""
        with self._lock:
            self._metrics.clear()

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every instrument's current state."""
        with self._lock:
            items = sorted(self._metrics.items())
        out: dict[str, Any] = {}
        for (name, labels), metric in items:
            entry_name = name + _label_suffix(labels)
            if isinstance(metric, Histogram):
                out[entry_name] = {
                    "type": "histogram",
                    "count": metric.count,
                    "sum": metric.total,
                    "mean": metric.mean,
                    "buckets": {
                        **{str(b): c for b, c in zip(metric.bounds, metric.counts)},
                        "+inf": metric.counts[-1],
                    },
                }
            else:
                kind = "counter" if isinstance(metric, Counter) else "gauge"
                out[entry_name] = {"type": kind, "value": metric.value}
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        by_family: dict[str, list[tuple[_LabelKey, Any]]] = {}
        with self._lock:
            items = sorted(self._metrics.items())
        for (name, labels), metric in items:
            by_family.setdefault(name, []).append((labels, metric))
        lines: list[str] = []
        for name, members in by_family.items():
            sample = members[0][1]
            kind = (
                "counter"
                if isinstance(sample, Counter)
                else "histogram" if isinstance(sample, Histogram) else "gauge"
            )
            lines.append(f"# TYPE {name} {kind}")
            for labels, metric in members:
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, count in zip(metric.bounds, metric.counts):
                        cumulative += count
                        le = _label_suffix(labels + (("le", repr(bound)),))
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    cumulative += metric.counts[-1]
                    le = _label_suffix(labels + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                    lines.append(f"{name}_sum{_label_suffix(labels)} {metric.total}")
                    lines.append(f"{name}_count{_label_suffix(labels)} {metric.count}")
                else:
                    lines.append(f"{name}{_label_suffix(labels)} {metric.value}")
        return "\n".join(lines) + ("\n" if lines else "")

"""Trace-file summaries backing the ``repro obs report`` command.

Consumes the JSONL format written by :meth:`Tracer.export_jsonl` and
renders the three views an engineer reads first:

- per-stage latency (``stage.*`` spans, the five-stage pipeline),
- per-node tasks, busy time and energy split (``task.execute`` spans
  carry the energy attributes the engines attach),
- top-N slowest spans of any kind,
- the job-service section, when the trace has ``service.*`` spans.

Every span is folded into a fresh registry
(:func:`~repro.obs.fold.fold_span`, the same fold that feeds the live
one): the node table and the service section are read back off its
series, so the report keeps no per-node books of its own.
"""

from __future__ import annotations

import heapq
import os
import re
from collections import defaultdict
from typing import Any, Iterable, Sequence

from repro.obs.energy import carries_energy, split_summary
from repro.obs.fold import fold_span
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import iter_spans

__all__ = [
    "TraceAggregate",
    "service_section",
    "histogram_quantile",
    "render_report",
    "report_from_file",
]

_LABELLED_KEY = re.compile(r'^(?P<name>[^{]+)\{(?P<labels>.*)\}$')
_LABEL_PAIR = re.compile(r'(\w+)="([^"]*)"')

#: ``node``-labelled series -> (node-row field, snapshot field it reads).
_NODE_SERIES = {
    "repro_tasks_total": ("tasks", "value"),
    "repro_task_runtime_seconds": ("busy_s", "sum"),
    "repro_energy_joules_total": ("energy_j", "value"),
    "repro_dirty_energy_joules_total": ("dirty_energy_j", "value"),
}


def _parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a snapshot key ``name{k="v",...}`` into name + labels."""
    m = _LABELLED_KEY.match(key)
    if not m:
        return key, {}
    return m.group("name"), dict(_LABEL_PAIR.findall(m.group("labels")))


def _fmt_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


class TraceAggregate:
    """Everything the report needs, folded span-by-span in one pass.

    Holds per-stage sums, the fold of every span (per-node and service
    series), energy-split accumulators and a bounded top-N heap of
    slowest spans — memory is O(stages + series + top_n) regardless of
    trace size, which is what lets ``repro obs report`` digest
    multi-hundred-MB service traces.
    """

    def __init__(self, top_n: int = 10):
        self.top_n = top_n
        self.spans = 0
        self.pids: set[int] = set()
        # stage name -> [spans, seconds, items]
        self._stages: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
        self._energy_j = 0.0
        self._dirty_j = 0.0
        self._energy_spans = 0
        self._heap: list[tuple[float, int, dict]] = []
        self._tiebreak = 0
        # The fold of every span: node_rows and service_section read it.
        self.metrics = MetricsRegistry()

    def add(self, span: dict) -> None:
        self.spans += 1
        self.pids.add(span["pid"])
        duration = float(span["duration_s"])
        name = span["name"]
        attrs = span.get("attrs", {})
        if name.startswith("stage."):
            bucket = self._stages[name]
            bucket[0] += 1
            bucket[1] += duration
            bucket[2] += int(attrs.get("items", 0))
        fold_span(self.metrics, span)
        if carries_energy(attrs):
            self._energy_j += float(attrs["energy_j"])
            self._dirty_j += float(attrs.get("dirty_energy_j", 0.0))
            self._energy_spans += 1
        self._tiebreak += 1
        entry = (duration, self._tiebreak, span)
        if len(self._heap) < self.top_n:
            heapq.heappush(self._heap, entry)
        elif self.top_n > 0 and entry[0] > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    # -- read side ----------------------------------------------------------

    def stage_rows(self) -> list[dict[str, Any]]:
        """Per stage: span count, total and mean seconds and — where
        the stage's spans say how many ``items`` they handled — the
        items and seconds per item (``stage.partition``'s is the
        measured staging cost of one data item)."""
        return [
            {
                "stage": name,
                "count": int(count),
                "total_s": total,
                "mean_s": total / count,
                "items": int(items),
                "s_per_item": total / items if items else None,
            }
            for name, (count, total, items) in sorted(
                self._stages.items(), key=lambda kv: -kv[1][1]
            )
        ]

    def node_rows(self) -> list[dict[str, Any]]:
        """Per node, in node-id order: tasks, busy seconds, energy, dirty
        and green energy and the green share, read off the fold's
        ``node``-labelled series (:data:`_NODE_SERIES`)."""
        books: dict[int, dict[str, float]] = defaultdict(dict)
        for key, entry in self.metrics.snapshot().items():
            name, labels = _parse_metric_key(key)
            if name in _NODE_SERIES and "node" in labels:
                field, source = _NODE_SERIES[name]
                books[int(labels["node"])][field] = entry[source]
        rows = []
        for node, book in sorted(books.items()):
            energy, dirty = book["energy_j"], book["dirty_energy_j"]
            rows.append({
                "node": node,
                "tasks": int(book["tasks"]),
                "busy_s": book["busy_s"],
                "energy_j": energy,
                "dirty_energy_j": dirty,
                "green_energy_j": energy - dirty,
                "green_fraction": (energy - dirty) / energy if energy > 0 else 1.0,
            })
        return rows

    @property
    def task_spans(self) -> int:
        """``task.execute`` spans with a ``node_id``: the node rows' tasks."""
        return sum(row["tasks"] for row in self.node_rows())

    def top_spans(self) -> list[dict]:
        return [
            span for _, _, span in sorted(self._heap, key=lambda e: (-e[0], e[1]))
        ]

    def split(self) -> dict[str, float]:
        """Same shape as :func:`repro.obs.energy.energy_split`."""
        return split_summary(self._energy_spans, self._energy_j, self._dirty_j)


def histogram_quantile(entry: dict[str, Any], q: float) -> float | None:
    """Upper-bound quantile estimate from a snapshot histogram entry.

    Returns the upper edge of the first bucket whose cumulative count
    reaches ``q`` of the total (``inf`` when it lands in the +inf
    bucket), or None for an empty histogram.
    """
    count = int(entry.get("count") or 0)
    if count <= 0:
        return None
    buckets = entry.get("buckets", {})
    edges = sorted(
        (float(bound), int(n)) for bound, n in buckets.items() if bound != "+inf"
    )
    target = q * count
    cumulative = 0
    for bound, n in edges:
        cumulative += n
        if cumulative >= target:
            return bound
    return float("inf")


def service_section(metrics: dict[str, Any]) -> dict[str, Any] | None:
    """Job-service posture from a metrics snapshot, or None when the
    snapshot carries no ``repro_service_*`` series.

    Reads the series :func:`~repro.obs.fold.fold_span` folds out of
    the :class:`~repro.service.manager.JobManager`'s spans: submissions,
    terminal states, rejections by reason, the queue-depth distribution
    (sampled at every admission and dequeue — depth over time), and
    p50/p99 queue-wait and run latency.
    """
    counters: dict[str, float] = {}
    states: dict[str, int] = {}
    rejections: dict[str, int] = {}
    hists: dict[str, dict[str, Any]] = {}
    gauges: dict[str, float] = {}
    for key, entry in metrics.items():
        if not key.startswith("repro_service_") or not isinstance(entry, dict):
            continue
        name, labels = _parse_metric_key(key)
        if entry.get("type") == "histogram":
            hists[name] = entry
        elif entry.get("type") == "gauge":
            gauges[name] = float(entry.get("value", 0.0))
        elif name == "repro_service_jobs_total":
            states[labels.get("state", "?")] = int(entry["value"])
        elif name == "repro_service_rejected_total":
            rejections[labels.get("reason", "?")] = int(entry["value"])
        else:
            counters[name] = counters.get(name, 0.0) + float(entry["value"])
    if not (counters or states or rejections or hists or gauges):
        return None

    def quantiles(name: str) -> dict[str, Any]:
        entry = hists.get(name)
        if entry is None:
            return {"count": 0, "mean": None, "p50": None, "p99": None}
        return {
            "count": int(entry.get("count", 0)),
            "mean": entry.get("mean"),
            "p50": histogram_quantile(entry, 0.50),
            "p99": histogram_quantile(entry, 0.99),
        }

    return {
        "submitted": int(counters.get("repro_service_submitted_total", 0)),
        "accepted": int(counters.get("repro_service_accepted_total", 0)),
        "rejections": dict(sorted(rejections.items())),
        "states": dict(sorted(states.items())),
        "results_evicted": int(
            counters.get("repro_service_results_evicted_total", 0)
        ),
        "queue_depth": {
            "current": gauges.get("repro_service_queue_depth"),
            "peak": gauges.get("repro_service_queue_depth_peak"),
            **quantiles("repro_service_queue_depth_jobs"),
        },
        "queue_wait_s": quantiles("repro_service_queue_wait_seconds"),
        "run_s": quantiles("repro_service_run_seconds"),
    }


def _fmt_quantile(value: Any) -> str:
    if value is None:
        return "-"
    value = float(value)
    if value == float("inf"):
        return ">max"
    return f"{value:.4f}"


def render_report(spans: Iterable[dict], top_n: int = 10, title: str = "") -> str:
    """The full ASCII report over one trace's spans.

    ``spans`` may be any iterable — it is consumed exactly once, folded
    into a :class:`TraceAggregate` — so a streamed trace file is never
    materialised.
    """
    agg = TraceAggregate(top_n)
    for span in spans:
        agg.add(span)
    sections: list[str] = []
    if title:
        sections.append(title)
    sections.append(
        f"{agg.spans} spans from {len(agg.pids)} process(es); "
        f"{agg.task_spans} task spans"
    )

    stages = agg.stage_rows()
    if stages:
        sections.append("\n== pipeline stages ==")
        sections.append(
            _fmt_table(
                ("stage", "count", "total_s", "mean_s", "items", "us_per_item"),
                [
                    (
                        r["stage"],
                        r["count"],
                        f"{r['total_s']:.4f}",
                        f"{r['mean_s']:.4f}",
                        r["items"] or "-",
                        f"{1e6 * r['s_per_item']:.2f}" if r["items"] else "-",
                    )
                    for r in stages
                ],
            )
        )

    nodes = agg.node_rows()
    if nodes:
        sections.append("\n== per-node tasks & energy ==")
        sections.append(
            _fmt_table(
                (
                    "node", "tasks", "busy_s", "energy_j",
                    "dirty_j", "green_j", "green_frac",
                ),
                [
                    (
                        r["node"],
                        r["tasks"],
                        f"{r['busy_s']:.3f}",
                        f"{r['energy_j']:.1f}",
                        f"{r['dirty_energy_j']:.1f}",
                        f"{r['green_energy_j']:.1f}",
                        f"{r['green_fraction']:.3f}",
                    )
                    for r in nodes
                ],
            )
        )
        split = agg.split()
        sections.append(
            f"energy split: {split['energy_j']:.1f} J total = "
            f"{split['dirty_energy_j']:.1f} J dirty + "
            f"{split['green_energy_j']:.1f} J green "
            f"(green fraction {split['green_fraction']:.3f})"
        )

    top = agg.top_spans()
    if top:
        sections.append(f"\n== top {len(top)} slowest spans ==")
        sections.append(
            _fmt_table(
                ("duration_s", "name", "pid", "span_id"),
                [
                    (f"{s['duration_s']:.4f}", s["name"], s["pid"], s["span_id"])
                    for s in top
                ],
            )
        )

    service = service_section(agg.metrics.snapshot())
    if service:
        sections.append("\n== service ==")
        rejected = sum(service["rejections"].values())
        line = (
            f"submitted {service['submitted']}  "
            f"accepted {service['accepted']}  rejected {rejected}"
        )
        if service["rejections"]:
            reasons = ", ".join(
                f"{reason}={n}" for reason, n in service["rejections"].items()
            )
            line += f" ({reasons})"
        sections.append(line)
        if service["states"]:
            sections.append(
                "terminal states: "
                + ", ".join(f"{s}={n}" for s, n in service["states"].items())
            )
        if service["results_evicted"]:
            sections.append(f"results evicted (TTL): {service['results_evicted']}")
        depth = service["queue_depth"]
        sections.append(
            f"queue depth: current {_fmt_quantile(depth['current'])}  "
            f"peak {_fmt_quantile(depth['peak'])}  "
            f"p50 {_fmt_quantile(depth['p50'])}  p99 {_fmt_quantile(depth['p99'])} "
            f"(over {depth['count']} samples)"
        )
        sections.append(
            _fmt_table(
                ("latency", "count", "mean_s", "p50_s", "p99_s"),
                [
                    (
                        label,
                        row["count"],
                        _fmt_quantile(row["mean"]),
                        _fmt_quantile(row["p50"]),
                        _fmt_quantile(row["p99"]),
                    )
                    for label, row in (
                        ("queue_wait", service["queue_wait_s"]),
                        ("run", service["run_s"]),
                    )
                ],
            )
        )
    return "\n".join(sections)


def report_from_file(path: str | os.PathLike, top_n: int = 10) -> str:
    """Validate and summarise one JSONL trace file, in one streaming pass
    (:func:`~repro.obs.trace.iter_spans`: a corrupt trace still raises
    :class:`ValueError`, and the span list is never materialised)."""
    return render_report(iter_spans(path), top_n, f"trace: {path}")

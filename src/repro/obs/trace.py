"""Span-based tracer with JSONL and Chrome ``trace_event`` export.

Spans are plain dicts once finished (cheap to ship across the process
boundary through the worker-pool return path, cheap to serialize), and
the live API is a context manager::

    tracer = Tracer()
    with tracer.span("stage.sketch", items=5000) as sp:
        sp.set_attr("hashes", 48)

Parent/child nesting is tracked per thread; worker processes run their
own :class:`Tracer` and return ``finished_spans()`` with the task
result, which the parent re-parents under the span that launched the
task (:meth:`Tracer.adopt`). Wall-clock timestamps (``time.time``)
anchor spans on a cross-process-comparable axis while durations come
from ``perf_counter``. Every record a tracer keeps is also folded into
its :attr:`Tracer.metrics` registry (:mod:`repro.obs.fold`).

Export targets:

- **JSONL** — one record per line, ``{"type": "span", ...}`` plus a
  leading ``{"type": "meta", ...}`` header; the schema the
  ``repro obs report`` command and the smoke test validate.
- **Chrome trace_event** — complete-event (``"ph": "X"``) JSON that
  loads directly in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Iterable

from repro.obs.fold import fold_span
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "NoopSpan",
    "NOOP_SPAN",
    "SCHEMA_VERSION",
    "validate_jsonl",
    "read_spans",
    "iter_records",
]

#: Bumped when the JSONL record layout changes.
SCHEMA_VERSION = 1

#: Keys every ``"type": "span"`` JSONL record must carry.
SPAN_REQUIRED_KEYS = frozenset(
    {"type", "name", "span_id", "parent_id", "pid", "tid", "start_s", "duration_s", "attrs"}
)

_ids = itertools.count(1)


def _new_span_id() -> str:
    # pid prefix keeps ids unique across forked workers without any
    # cross-process coordination.
    return f"{os.getpid():x}-{next(_ids):x}"


class NoopSpan:
    """The disabled-path span: every operation is a no-op.

    A single module-level instance is handed out, so the disabled cost
    of ``with obs.span(...)`` is one flag check plus two trivial calls.
    """

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set_attr(self, key: str, value: Any) -> None:
        return None

    @property
    def span_id(self) -> None:
        return None


NOOP_SPAN = NoopSpan()


class Span:
    """A live span; becomes a plain dict on exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "start_s", "_t0")

    def __init__(self, tracer: "Tracer", name: str, parent_id: str | None, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.start_s = time.time()
        self._t0 = time.perf_counter()

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        self.tracer._pop(self)
        record = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start_s": self.start_s,
            "duration_s": duration,
            "attrs": self.attrs,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self.tracer._record(record)


class Tracer:
    """Collects finished spans; one per process (plus one per worker)."""

    def __init__(self) -> None:
        self._spans: list[dict] = []
        self._lock = threading.Lock()
        # The fold of every kept record; read, never written, elsewhere.
        self.metrics = MetricsRegistry()
        self._stack = threading.local()
        # Optional live consumer: every finished span record is handed
        # to the sink (outside the collection lock, after the fold) —
        # the hook the repro.obs.live telemetry bus installs. None costs
        # one check, and is what a sink detached for failing reads as
        # afterwards.
        self.sink: Callable[[dict], None] | None = None

    def set_sink(self, sink: Callable[[dict], None] | None) -> None:
        """Install (or clear) a per-record callback.

        The sink is invoked synchronously on the recording thread for
        every finished span, including adopted worker spans. A failing
        sink is logged and detached rather than poisoning tracing.
        """
        self.sink = sink

    def _publish(self, record: dict) -> None:
        """Fold a kept record into :attr:`metrics`, then feed the sink."""
        fold_span(self.metrics, record)
        sink = self.sink
        if sink is None:
            return
        try:
            sink(record)
        except Exception:
            # A broken live consumer must never take the tracer down;
            # detach it so one bad record doesn't log-spam every span.
            self.sink = None
            from repro.obs.log import get_logger, log_event
            import logging

            log_event(
                get_logger(__name__), logging.WARNING,
                "trace.sink.detached", span=record.get("name"),
            )

    # -- span lifecycle -----------------------------------------------------

    def _stack_list(self) -> list[Span]:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack_list().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack_list()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit; recover rather than corrupt
            stack.remove(span)

    def _record(self, record: dict) -> None:
        with self._lock:
            self._spans.append(record)
        self._publish(record)

    def current_span_id(self) -> str | None:
        stack = self._stack_list()
        return stack[-1].span_id if stack else None

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; use as a context manager."""
        return Span(self, name, self.current_span_id(), attrs)

    def emit(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        parent_id: str | None = None,
        **attrs: Any,
    ) -> dict:
        """Record a pre-timed span (simulated timelines, point events)."""
        record = {
            "type": "span",
            "name": name,
            "span_id": _new_span_id(),
            "parent_id": parent_id if parent_id is not None else self.current_span_id(),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start_s": start_s,
            "duration_s": duration_s,
            "attrs": attrs,
        }
        self._record(record)
        return record

    def adopt(self, records: Iterable[dict], parent_id: str | None = None) -> None:
        """Ingest spans finished elsewhere (a worker process); root
        spans among them are re-parented under ``parent_id``."""
        adopted: list[dict] = []
        with self._lock:
            for record in records:
                if parent_id is not None and record.get("parent_id") is None:
                    record = {**record, "parent_id": parent_id}
                self._spans.append(record)
                adopted.append(record)
        for record in adopted:
            self._publish(record)

    # -- access & export ----------------------------------------------------

    def finished_spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def span_count(self) -> int:
        # Deliberately not __len__: a len() makes an empty tracer falsy,
        # which silently breaks ``if tracer`` guards.
        with self._lock:
            return len(self._spans)

    def reset(self) -> None:
        """Drop every kept span and, with them, their fold."""
        with self._lock:
            self._spans.clear()
        self.metrics.reset()

    def export_jsonl(self, path: str | os.PathLike) -> int:
        """Write the meta header + one span per line; returns span count."""
        spans = self.finished_spans()
        meta = {
            "type": "meta",
            "schema_version": SCHEMA_VERSION,
            "pid": os.getpid(),
            "span_count": len(spans),
            "written_at_s": time.time(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for record in spans:
                fh.write(json.dumps(record) + "\n")
        return len(spans)

    def export_chrome(self, path: str | os.PathLike) -> int:
        """Write Chrome ``trace_event`` JSON (complete events)."""
        spans = self.finished_spans()
        t0 = min((s["start_s"] for s in spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (s["start_s"] - t0) * 1e6,
                "dur": s["duration_s"] * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {**s["attrs"], "span_id": s["span_id"]},
            }
            for s in spans
        ]
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return len(events)


def iter_records(path: str | os.PathLike) -> Iterable[dict]:
    """Stream a JSONL trace file record-by-record, validating as it goes.

    Yields every record (the ``meta`` header first, then each span) with
    per-record schema checks, holding only one line in memory at a time.
    Once the last record has been yielded the meta header is checked
    against what was read, so a wrong schema version or a span-count
    mismatch raises :class:`ValueError`. Every trace reader —
    :func:`iter_spans`, :func:`read_spans`, :func:`validate_jsonl` and
    ``repro obs report`` — is built on it, so multi-hundred-MB service
    traces never get materialised unless asked for.
    """
    meta: dict = {}
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "span":
                missing = SPAN_REQUIRED_KEYS - record.keys()
                if missing:
                    raise ValueError(
                        f"{path}:{lineno}: span record missing keys {sorted(missing)}"
                    )
                if not isinstance(record["attrs"], dict):
                    raise ValueError(f"{path}:{lineno}: span attrs must be an object")
                if record["duration_s"] < 0:
                    raise ValueError(
                        f"{path}:{lineno}: span duration must be non-negative"
                    )
                count += 1
            else:
                raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
            yield record
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {meta.get('schema_version')!r}")
    if meta.get("span_count") != count:
        raise ValueError(
            f"meta span_count {meta.get('span_count')} != {count} span lines"
        )


def iter_spans(path: str | os.PathLike) -> Iterable[dict]:
    """Stream the span records of a JSONL trace file (checked as
    :func:`iter_records` checks them)."""
    return (record for record in iter_records(path) if record["type"] == "span")


def read_spans(path: str | os.PathLike) -> tuple[dict, list[dict]]:
    """Load a JSONL trace file → ``(meta, spans)``, checked as
    :func:`iter_records` checks it.

    Materialises the whole span list; prefer :func:`iter_spans` for
    large service traces.
    """
    meta: dict = {}
    spans: list[dict] = []
    for record in iter_records(path):
        if record["type"] == "meta":
            meta = record
        else:
            spans.append(record)
    return meta, spans


def validate_jsonl(path: str | os.PathLike) -> dict:
    """Validate a trace file's schema; returns summary stats.

    Streams line-by-line (constant memory in the span count). Raises
    :class:`ValueError` on malformed records, wrong schema version, or a
    span-count mismatch against the meta header.
    """
    count = 0
    names: set[str] = set()
    pids: set[int] = set()
    for span in iter_spans(path):
        count += 1
        names.add(span["name"])
        pids.add(span["pid"])
    return {
        "spans": count,
        "names": sorted(names),
        "pids": sorted(pids),
    }

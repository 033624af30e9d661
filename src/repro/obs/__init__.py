"""``repro.obs`` — tracing, metrics and energy telemetry.

One module-level switch gates the whole subsystem. Disabled (the
default) every instrumentation point reduces to a single flag check —
``obs.enabled()`` — or a no-op span, so the pipeline's measured
timings and the kernels' bit-identity are untouched (the pipeline
benchmark asserts the disabled overhead on the sketch stage is < 2%).

Enabled, the process-global :class:`~repro.obs.trace.Tracer` collects
the spans of every instrumented layer, and its metrics registry is
their fold (:mod:`repro.obs.fold`)::

    from repro import obs

    obs.enable()
    report = pp.execute(items, workload, strategy)
    obs.export_jsonl("run.trace.jsonl")      # repro obs report <file>
    obs.export_chrome("run.trace.json")      # chrome://tracing / Perfetto
    print(obs.render_prometheus())
    obs.disable()

Worker processes ship their spans back through the pool-task return
path (see :mod:`repro.cluster.engines`); the enabled flag travels in
the task tuple, so a lazily created persistent pool needs no restart
when tracing is toggled.
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.energy import energy_split, task_energy_attrs
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger, log_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    NOOP_SPAN,
    SCHEMA_VERSION,
    NoopSpan,
    Span,
    Tracer,
    read_spans,
    validate_jsonl,
)

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "reset_after_fork",
    "span",
    "emit",
    "get_tracer",
    "get_metrics",
    "export_jsonl",
    "export_chrome",
    "metrics_snapshot",
    "render_prometheus",
    "get_logger",
    "log_event",
    "configure_logging",
    "task_energy_attrs",
    "energy_split",
    "read_spans",
    "validate_jsonl",
    "Tracer",
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "MetricsRegistry",
    "SCHEMA_VERSION",
]

_enabled: bool = False
_tracer = Tracer()


def enabled() -> bool:
    """The one flag every instrumentation point checks first."""
    return _enabled


def enable() -> None:
    """Turn span/metric collection on, process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off; already-collected spans/metrics survive
    until :func:`reset` so they can still be exported."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear all collected spans and, with them, their metrics."""
    _tracer.reset()


def reset_after_fork() -> None:
    """Fresh, empty collectors for a forked child process.

    A forked child inherits the parent's tracer and its registry, locks
    and live sink included, and a lock that another parent thread held
    at the fork stays held for ever in the child. Replacing the tracer,
    rather than :func:`reset`, which takes those locks, is safe whatever
    was held.
    """
    global _tracer
    _tracer = Tracer()


def get_tracer() -> Tracer:
    return _tracer


def get_metrics() -> MetricsRegistry:
    """The fold of the global tracer's spans: read it, never write it."""
    return _tracer.metrics


def span(name: str, **attrs: Any):
    """Context-manager span on the global tracer; no-op when disabled."""
    if not _enabled:
        return NOOP_SPAN
    return _tracer.span(name, **attrs)


def emit(
    name: str,
    start_s: float,
    duration_s: float,
    parent_id: str | None = None,
    **attrs: Any,
) -> dict | None:
    """Pre-timed span on the global tracer; no-op when disabled."""
    if not _enabled:
        return None
    return _tracer.emit(name, start_s, duration_s, parent_id=parent_id, **attrs)


def export_jsonl(path: str | os.PathLike) -> int:
    return _tracer.export_jsonl(path)


def export_chrome(path: str | os.PathLike) -> int:
    return _tracer.export_chrome(path)


def metrics_snapshot() -> dict[str, Any]:
    return _tracer.metrics.snapshot()


def render_prometheus() -> str:
    return _tracer.metrics.render_prometheus()

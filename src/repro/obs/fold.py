"""The metric catalogue: every ``repro_*`` series is a fold of the span stream.

Instrumented code emits spans and nothing else; :func:`fold_span` is
the only code that updates a series. Every tracer applies it to each
record it keeps, so folding an exported trace into a fresh registry
rebuilds the live one. Its branches are the catalogue (span name →
series), tabulated in docs/observability.md. A span whose books were
never written (a job or a submission that raised) folds to nothing.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = ["fold_span", "QUEUE_DEPTH_BUCKETS"]

#: Queue-depth histogram buckets (jobs waiting, sampled at every
#: admission and dequeue — the "queue depth over time" distribution).
QUEUE_DEPTH_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


def _queue_depth(reg: MetricsRegistry, attrs: Mapping[str, Any]) -> None:
    if "depth" not in attrs:
        return
    reg.gauge("repro_service_queue_depth").set(attrs["depth"])
    if "peak" in attrs:
        reg.gauge("repro_service_queue_depth_peak").set(attrs["peak"])
    reg.histogram("repro_service_queue_depth_jobs", bounds=QUEUE_DEPTH_BUCKETS).observe(
        attrs["depth"]
    )


def fold_span(reg: MetricsRegistry, record: Mapping[str, Any]) -> None:
    """Apply one finished span record's updates to ``reg``. A span no
    series reads, or one without the attribute a series needs, leaves
    that series alone."""
    name, attrs, duration_s = record["name"], record["attrs"], record["duration_s"]
    if name == "task.execute" and "node_id" in attrs:
        node = str(attrs["node_id"])
        reg.counter("repro_tasks_total", node=node).inc()
        reg.histogram("repro_task_runtime_seconds", node=node).observe(
            attrs.get("runtime_s", duration_s)
        )
        if "queue_wait_s" in attrs:
            reg.histogram("repro_task_queue_wait_seconds", node=node).observe(
                attrs["queue_wait_s"]
            )
        reg.counter("repro_energy_joules_total", node=node).inc(attrs.get("energy_j", 0.0))
        reg.counter("repro_dirty_energy_joules_total", node=node).inc(
            attrs.get("dirty_energy_j", 0.0)
        )
    elif name == "engine.run_job":
        if "makespan_s" in attrs:
            reg.counter("repro_jobs_total", engine=attrs.get("engine", "")).inc()
        wasted = attrs.get("wasted_energy_j")
        if wasted:
            reg.counter("repro_fault_wasted_energy_joules_total").inc(wasted)
    elif name == "fault.injected" and "node_id" in attrs:
        reg.counter("repro_fault_injected_total", node=str(attrs["node_id"])).inc()
    elif name == "fault.retried" and "node_id" in attrs:
        reg.counter("repro_fault_retried_total", node=str(attrs["node_id"])).inc()
    elif name == "worksteal.steal" and "thief" in attrs:
        reg.counter("repro_worksteal_steals_total", thief=str(attrs["thief"])).inc()
        reg.counter("repro_worksteal_items_stolen_total").inc(attrs.get("chunk_items", 0))
    elif name == "engine.pool.created":
        reg.counter("repro_pool_creations_total").inc()
    elif name == "service.submit" and "state" in attrs:
        reg.counter("repro_service_submitted_total").inc()
        if attrs["state"] == "REJECTED":
            reg.counter("repro_service_rejected_total", reason=attrs.get("reason", "")).inc()
        else:
            reg.counter("repro_service_accepted_total", tenant=attrs.get("tenant", "")).inc()
            _queue_depth(reg, attrs)
    elif name == "service.queue_wait":
        _queue_depth(reg, attrs)
        reg.histogram("repro_service_queue_wait_seconds").observe(duration_s)
    elif name == "service.run" and "state" in attrs:
        reg.counter("repro_service_jobs_total", state=attrs["state"]).inc()
        reg.histogram("repro_service_run_seconds").observe(duration_s)
    elif name == "service.cancel":
        reg.counter("repro_service_jobs_total", state="CANCELLED").inc()
    elif name == "service.evict" and "evicted" in attrs:
        reg.counter("repro_service_results_evicted_total").inc(attrs["evicted"])

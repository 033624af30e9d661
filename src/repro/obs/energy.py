"""Energy telemetry: per-node time/energy breakdowns from job results.

Bridges :mod:`repro.energy.accounting` into the observability plane
without importing any cluster types — everything here duck-types on
the ``TaskResult`` fields (``node_id``, ``runtime_s``, ``energy_j``,
``dirty_energy_j``), so it works on :class:`~repro.cluster.engines.JobResult`
from any engine (simulated, process-pool, fault-injecting,
work-stealing).

The invariant the acceptance tests pin: summing the per-node (or
per-span) attributes reproduces the job totals exactly — the breakdown
is an exact regrouping of the same floats, never a re-measurement.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = [
    "fold_task",
    "node_rows",
    "node_energy_breakdown",
    "task_energy_attrs",
    "energy_split",
]


def task_energy_attrs(task: Any) -> dict[str, Any]:
    """Span attributes for one executed task, energy fields included."""
    energy = float(task.energy_j)
    dirty = float(task.dirty_energy_j)
    attrs = {
        "partition_id": int(task.partition_id),
        "node_id": int(task.node_id),
        "work_units": float(task.work_units),
        "runtime_s": float(task.runtime_s),
        "energy_j": energy,
        "dirty_energy_j": dirty,
        "green_energy_j": energy - dirty,
        "green_fraction": (energy - dirty) / energy if energy > 0 else 1.0,
    }
    stats = getattr(task, "stats", None) or {}
    if stats.get("wasted"):
        # Fault-injected attempts: energy was burned but the output was
        # discarded; the live ledger bills this separately per tenant.
        attrs["wasted"] = True
    return attrs


def fold_task(rows: dict[int, dict[str, float]], attrs: Mapping[str, Any]) -> None:
    """Add one task's attributes — what :func:`task_energy_attrs` builds
    and a ``task.execute`` span carries — to its node's row in ``rows``.

    The one per-node regrouping: a job's breakdown, the trace report's
    node table and the live estimator's books all keep their rows here.
    """
    node = int(attrs["node_id"])
    row = rows.get(node)
    if row is None:
        row = rows[node] = {
            "tasks": 0, "busy_s": 0.0, "energy_j": 0.0, "dirty_energy_j": 0.0
        }
    row["tasks"] += 1
    row["busy_s"] += float(attrs.get("runtime_s", 0.0))
    row["energy_j"] += float(attrs.get("energy_j", 0.0))
    row["dirty_energy_j"] += float(attrs.get("dirty_energy_j", 0.0))


def node_rows(rows: Mapping[int, Mapping[str, float]]) -> dict[int, dict[str, float]]:
    """The folded rows in node-id order, each with its green share:
    ``{tasks, busy_s, energy_j, dirty_energy_j, green_energy_j,
    green_fraction}``."""
    out: dict[int, dict[str, float]] = {}
    for node, row in sorted(rows.items()):
        green = row["energy_j"] - row["dirty_energy_j"]
        out[node] = {
            **row,
            "green_energy_j": green,
            "green_fraction": green / row["energy_j"] if row["energy_j"] > 0 else 1.0,
        }
    return out


def node_energy_breakdown(job: Any) -> dict[int, dict[str, float]]:
    """Per-node rows (see :func:`node_rows`) folded over ``job.tasks``.

    Sums are exact regroupings of the task fields, so
    ``sum(row["energy_j"]) == job.total_energy_j`` (and likewise for
    dirty energy) up to float addition order.
    """
    rows: dict[int, dict[str, float]] = {}
    for task in job.tasks:
        fold_task(rows, task_energy_attrs(task))
    return node_rows(rows)


def carries_energy(attrs: dict) -> bool:
    """True for the attributes of a span an energy split sums — one
    with ``energy_j``, so stage and worker spans pass through
    untouched."""
    return "energy_j" in attrs


def split_summary(task_spans: int, total: float, dirty: float) -> dict[str, float]:
    """The energy-split record for summed total and dirty joules."""
    return {
        "task_spans": task_spans,
        "energy_j": total,
        "dirty_energy_j": dirty,
        "green_energy_j": total - dirty,
        "green_fraction": (total - dirty) / total if total > 0 else 1.0,
    }


def energy_split(spans: Iterable[dict]) -> dict[str, float]:
    """Total/dirty/green energy summed over the spans of a trace that
    :func:`carries_energy` (its task spans)."""
    total = dirty = 0.0
    tasks = 0
    for span in spans:
        attrs = span.get("attrs", {})
        if not carries_energy(attrs):
            continue
        total += float(attrs["energy_j"])
        dirty += float(attrs.get("dirty_energy_j", 0.0))
        tasks += 1
    return split_summary(tasks, total, dirty)

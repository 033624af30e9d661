"""Energy telemetry: the energy attributes of a task span, and a
trace's energy split.

Carries what a node billed into the observability plane without
importing any cluster types — :func:`task_energy_attrs` duck-types on
the ``TaskResult`` fields (``node_id``, ``runtime_s``,
``energy_j``, ``dirty_energy_j``), so it works for a task of any
engine (simulated, process-pool, work-stealing).

The per-node books are not kept here: they are the ``node``-labelled
series :func:`~repro.obs.fold.fold_span` folds out of ``task.execute``
spans. The invariant the acceptance tests pin: summing the per-node
(or per-span) attributes reproduces the job totals exactly — the books
are an exact regrouping of the same floats, never a re-measurement.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["task_energy_attrs", "energy_split"]


def task_energy_attrs(task: Any) -> dict[str, Any]:
    """Span attributes for one executed task, energy fields included."""
    energy = float(task.energy_j)
    dirty = float(task.dirty_energy_j)
    return {
        "partition_id": int(task.partition_id),
        "node_id": int(task.node_id),
        "work_units": float(task.work_units),
        "runtime_s": float(task.runtime_s),
        "energy_j": energy,
        "dirty_energy_j": dirty,
        "green_energy_j": energy - dirty,
        "green_fraction": (energy - dirty) / energy if energy > 0 else 1.0,
    }


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

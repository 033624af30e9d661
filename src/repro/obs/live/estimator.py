"""Online per-node estimators: what each node costs right now.

Every ``task.execute`` span carries ``(node_id, work_units, runtime_s,
energy_j, dirty_energy_j)``; :class:`NodeEstimator` folds those into

- an EWMA-weighted **linear regression** of runtime vs ``work_units``
  per ``(node, workload)`` — the ``f_i(x) = m_i·x + c_i`` shape
  progressive sampling fits offline, but continuously, from production
  traffic instead of probes, and with ``x`` in the workload's *work
  units*, not items: the slope is seconds per work unit, so these
  models are not the item-space ones the partition planner takes; and
- EWMA **power** estimates (total / dirty / green watts) per node.

The regression decays old evidence geometrically (sample weight
``_DECAY^age``, age counted in the samples of its own ``(node,
workload)``), so a node that slows down — co-location interference,
thermal throttling — re-converges instead of being anchored to history.
:meth:`NodeEstimator.snapshot` is the read side, the ``nodes`` list of
the ``/live`` payload: per node, the regressions of every workload
merged, the power split and the count of tasks seen.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

__all__ = ["NodeEstimator"]

#: Pseudo-workload key for samples that carry no workload attribute.
_ANY_WORKLOAD = "_"

#: EWMA step of the per-node power split.
_POWER_ALPHA = 0.2

#: Per-sample geometric weight on old regression evidence (≈ a
#: 100-task memory).
_DECAY = 0.99


class _RegAcc:
    """EWMA-decayed least-squares accumulators for one (node, workload)."""

    __slots__ = ("s1", "sx", "sy", "sxx", "sxy", "n")

    def __init__(self) -> None:
        self.s1 = self.sx = self.sy = self.sxx = self.sxy = 0.0
        self.n = 0

    def add(self, x: float, y: float, decay: float) -> None:
        self.s1 = self.s1 * decay + 1.0
        self.sx = self.sx * decay + x
        self.sy = self.sy * decay + y
        self.sxx = self.sxx * decay + x * x
        self.sxy = self.sxy * decay + x * y
        self.n += 1

    def merge(self, other: "_RegAcc") -> None:
        self.s1 += other.s1
        self.sx += other.sx
        self.sy += other.sy
        self.sxx += other.sxx
        self.sxy += other.sxy
        self.n += other.n

    def fit(self) -> tuple[float, float]:
        """Weighted-least-squares ``(slope, intercept)``, both clamped ≥ 0."""
        if self.n == 0 or self.s1 <= 0.0:
            return 0.0, 0.0
        denom = self.s1 * self.sxx - self.sx * self.sx
        mean_y = self.sy / self.s1
        # Degenerate x spread (all samples the same size): slope is
        # unidentifiable, fall back to a flat model at the mean runtime.
        if denom <= 1e-12 * max(self.sxx, 1.0):
            return 0.0, max(mean_y, 0.0)
        slope = (self.s1 * self.sxy - self.sx * self.sy) / denom
        if slope < 0.0:
            return 0.0, max(mean_y, 0.0)
        intercept = (self.sy - slope * self.sx) / self.s1
        return slope, max(intercept, 0.0)


class _PowerAcc:
    """EWMA power split for one node (constant-alpha, per-task samples)
    and the count of tasks it has seen."""

    __slots__ = ("power_w", "dirty_w", "samples")

    def __init__(self) -> None:
        self.power_w = self.dirty_w = 0.0
        self.samples = 0

    def add(self, runtime_s: float, energy_j: float, dirty_j: float) -> None:
        watts = energy_j / runtime_s
        dirty_watts = dirty_j / runtime_s
        if self.samples == 0:
            self.power_w = watts
            self.dirty_w = dirty_watts
        else:
            self.power_w += _POWER_ALPHA * (watts - self.power_w)
            self.dirty_w += _POWER_ALPHA * (dirty_watts - self.dirty_w)
        self.samples += 1


class NodeEstimator:
    """Folds ``task.execute`` span attrs into per-node live estimates.

    Thread-safe: spans arrive from any manager worker thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reg: dict[tuple[int, str], _RegAcc] = {}
        self._power: dict[int, _PowerAcc] = {}

    def observe_task(self, attrs: Mapping[str, Any]) -> None:
        """Ingest one ``task.execute`` span's attributes."""
        runtime = float(attrs["runtime_s"])
        if runtime <= 0.0:
            return
        node = int(attrs["node_id"])
        work = float(attrs.get("work_units", 0.0))
        energy = float(attrs.get("energy_j", 0.0))
        dirty = float(attrs.get("dirty_energy_j", 0.0))
        workload = str(attrs.get("workload", _ANY_WORKLOAD))
        with self._lock:
            power = self._power.get(node)
            if power is None:
                power = self._power[node] = _PowerAcc()
            power.add(runtime, energy, dirty)
            # A task with no work units burns watts but says nothing
            # about time per unit — it informs power, not the model.
            if work > 0.0:
                key = (node, workload)
                reg = self._reg.get(key)
                if reg is None:
                    reg = self._reg[key] = _RegAcc()
                reg.add(work, runtime, _DECAY)

    # -- read side ----------------------------------------------------------

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-ready per-node view, node-id order, pooled across
        workloads. The time model predicts seconds from work units
        (``slope_s_per_item``, ``intercept_s``), and
        ``throughput_items_per_s`` is its inverse slope: the key names
        the ``/live`` payload has always had."""
        out: list[dict[str, Any]] = []
        with self._lock:
            for node, power in sorted(self._power.items()):
                acc = _RegAcc()
                for (n, _workload), reg in self._reg.items():
                    if n == node:
                        acc.merge(reg)
                slope, intercept = acc.fit()
                out.append({
                    "node_id": node,
                    "slope_s_per_item": slope,
                    "intercept_s": intercept,
                    "throughput_items_per_s": 1.0 / slope if slope > 0 else 0.0,
                    "power_w": power.power_w,
                    "dirty_power_w": power.dirty_w,
                    "green_power_w": max(power.power_w - power.dirty_w, 0.0),
                    "samples": power.samples,
                })
        return out

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
``decay^age``), so a node that slows down — co-location interference,
thermal throttling — re-converges instead of being anchored to history.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.energy import fold_task

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.core.heterogeneity import LinearTimeModel

__all__ = ["NodeEstimate", "ClusterEstimate", "NodeEstimator"]

#: Pseudo-workload key for samples that carry no workload attribute.
_ANY_WORKLOAD = "_"

#: EWMA step of the per-node power split.
_POWER_ALPHA = 0.2


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
    """EWMA power split for one node (constant-alpha, per-task samples)."""

    __slots__ = ("power_w", "dirty_w")

    def __init__(self) -> None:
        self.power_w: float | None = None
        self.dirty_w: float | None = None

    def add(self, runtime_s: float, energy_j: float, dirty_j: float) -> None:
        watts = energy_j / runtime_s
        dirty_watts = dirty_j / runtime_s
        if self.power_w is None:
            self.power_w = watts
            self.dirty_w = dirty_watts
        else:
            self.power_w += _POWER_ALPHA * (watts - self.power_w)
            self.dirty_w += _POWER_ALPHA * (dirty_watts - self.dirty_w)


@dataclass(frozen=True)
class NodeEstimate:
    """One node's live picture: time model + power split.

    ``model`` predicts seconds from work units and
    ``throughput_items_per_s`` is its inverse slope — work units per
    second; the ``/live`` payload keeps both under the key names it has
    always had.
    """

    node_id: int
    model: "LinearTimeModel"
    throughput_items_per_s: float
    power_w: float
    dirty_power_w: float
    green_power_w: float
    samples: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "node_id": self.node_id,
            "slope_s_per_item": self.model.slope,
            "intercept_s": self.model.intercept,
            "throughput_items_per_s": self.throughput_items_per_s,
            "power_w": self.power_w,
            "dirty_power_w": self.dirty_power_w,
            "green_power_w": self.green_power_w,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class ClusterEstimate:
    """Per-node estimates, node-id order."""

    nodes: tuple[NodeEstimate, ...]


class NodeEstimator:
    """Folds ``task.execute`` span attrs into per-node live estimates.

    ``decay`` is the per-sample geometric weight on old regression
    evidence (0.99 ≈ a ~100-task memory). Thread-safe: spans arrive
    from any manager worker thread.
    """

    def __init__(self, decay: float = 0.99):
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = decay
        self._lock = threading.Lock()
        self._reg: dict[tuple[int, str], _RegAcc] = {}
        self._power: dict[int, _PowerAcc] = {}
        #: node → the :func:`~repro.obs.energy.fold_task` row of its tasks.
        self._books: dict[int, dict[str, float]] = {}

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
        wasted = bool(attrs.get("wasted"))
        with self._lock:
            fold_task(self._books, attrs)
            power = self._power.get(node)
            if power is None:
                power = self._power[node] = _PowerAcc()
            power.add(runtime, energy, dirty)
            # Wasted (fault-killed) attempts burn watts but their
            # work_units are zeroed — they inform power, not the model.
            if not wasted and work > 0.0:
                key = (node, workload)
                reg = self._reg.get(key)
                if reg is None:
                    reg = self._reg[key] = _RegAcc()
                reg.add(work, runtime, self.decay)

    # -- read side ----------------------------------------------------------

    def estimates(
        self, workload: str | None = None, num_nodes: int | None = None
    ) -> ClusterEstimate:
        """Current per-node estimates, node-id order.

        ``workload=None`` pools every workload's regression evidence
        per node (fine when per-item costs are similar; pass an explicit
        workload for an unbiased model of that workload). ``num_nodes``
        forces the output length; nodes with no samples yet get a zero
        model and zero watts, flagged by ``samples == 0``.
        """
        from repro.core.heterogeneity import LinearTimeModel

        with self._lock:
            node_ids = sorted(self._books)
            if num_nodes is not None:
                node_ids = list(range(num_nodes))
            out: list[NodeEstimate] = []
            for node in node_ids:
                acc = _RegAcc()
                for (n, wl), reg in self._reg.items():
                    if n != node:
                        continue
                    if workload is not None and wl != workload:
                        continue
                    acc.merge(reg)
                slope, intercept = acc.fit()
                books = self._books.get(node)
                power = self._power.get(node)
                watts = power.power_w if power and power.power_w is not None else 0.0
                dirty_w = power.dirty_w if power and power.dirty_w is not None else 0.0
                out.append(
                    NodeEstimate(
                        node_id=node,
                        model=LinearTimeModel(slope=slope, intercept=intercept),
                        throughput_items_per_s=1.0 / slope if slope > 0 else 0.0,
                        power_w=watts,
                        dirty_power_w=dirty_w,
                        green_power_w=max(watts - dirty_w, 0.0),
                        samples=books["tasks"] if books else 0,
                    )
                )
        return ClusterEstimate(nodes=tuple(out))

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-ready per-node view (pooled across workloads)."""
        return [n.as_dict() for n in self.estimates().nodes]

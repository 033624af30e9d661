"""The exact time–energy front of the partition-sizing LP (paper
Section III-D).

The paper's problem is bi-objective and linear:

.. math::

    \\min\\; \\bigl(v,\\; \\textstyle\\sum_i k_i (m_i x_i + c_i)\\bigr)
    \\quad\\text{s.t.}\\quad v \\ge m_i x_i + c_i,\\; x_i \\ge 0,\\;
    \\sum_i x_i = N

with ``v`` the makespan, ``m_i, c_i`` the learned time-model
coefficients and ``k_i`` the dirty-power coefficients. Its Pareto front
is piecewise linear with at most ``p`` vertices, and they have a closed
form: at a given makespan ``v`` the cheapest feasible plan fills nodes
in ascending ``k_i·m_i`` (joules per extra item) up to their capacity
``(v − c_i)/m_i`` — a fractional knapsack — so the vertices sit at the
makespans where the ``j`` cheapest nodes, all full, hold exactly ``N``.
:meth:`ParetoOptimizer.front` enumerates them once per ``(N, floor)``
and the optimizer keeps them; the paper's scalarised
``min α·v + (1−α)·Σ k_i f_i(x_i)`` is then a choice among
them (:meth:`ParetoOptimizer.solve` — a weighted-sum LP optimum is
always a vertex; ``α = 1`` is Het-Aware), and a dirty-energy budget is
a point on one segment between two of them (:mod:`repro.core.budget`).
Sizes are rounded to integers with the largest-remainder method.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.heterogeneity import LinearTimeModel


@dataclass
class PartitionPlan:
    """The optimizer's output: integer partition sizes plus predictions."""

    sizes: np.ndarray
    alpha: float
    predicted_makespan_s: float
    predicted_dirty_energy_j: float

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if (self.sizes < 0).any():
            raise ValueError("partition sizes must be non-negative")

    @property
    def num_partitions(self) -> int:
        return int(self.sizes.size)

    @property
    def total_items(self) -> int:
        return int(self.sizes.sum())


def _largest_remainder_round(x: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative reals to integers preserving their sum."""
    floors = np.floor(x).astype(np.int64)
    remainder = total - int(floors.sum())
    if remainder < 0:
        raise ValueError("rounding underflow")
    floors[np.argsort(-(x - floors))[:remainder]] += 1
    return floors


def predict_makespan(models: Sequence[LinearTimeModel], sizes: np.ndarray) -> float:
    """Max predicted runtime across partitions (empty partitions are free)."""
    return max(mod.predict(float(s)) if s > 0 else 0.0 for mod, s in zip(models, sizes))


def predict_dirty_energy(
    models: Sequence[LinearTimeModel], dirty_coeffs: np.ndarray, sizes: np.ndarray
) -> float:
    """Σ k_i · f_i(x_i) over non-empty partitions."""
    nodes = zip(dirty_coeffs, models, sizes)
    return float(sum(k * mod.predict(float(s)) for k, mod, s in nodes if s > 0))


#: One plan before rounding: (makespan, dirty energy, real sizes).
_Vertex = tuple[float, float, np.ndarray]

#: What one ``(N, floor)`` enumerates: each band of α as ``(highest α,
#: its plan)``, highest first, and the distinct plans, fastest first.
_Enumerated = tuple[list[tuple[float, PartitionPlan]], list[PartitionPlan]]


#: No caller states α to more digits than this.
_UNSTATABLE = 1e-12


def _tie_alpha(faster: _Vertex, greener: _Vertex) -> float:
    """The α at which two front points score the same ``α·T + (1−α)·E``."""
    d_energy = faster[1] - greener[1]
    return d_energy / (d_energy + greener[0] - faster[0])


@dataclass
class ParetoOptimizer:
    """The partition-sizing solver: one front, read three ways, and
    enumerated once per ``(N, floor)``: the models never change, so the
    plans are kept and every later read is a lookup.

    Parameters
    ----------
    models:
        Per-node time models (from progressive sampling), node order.
    dirty_coeffs:
        Per-node dirty-power coefficients ``k_i`` (W), same order.
    """

    models: Sequence[LinearTimeModel]
    dirty_coeffs: Sequence[float]
    _k: np.ndarray = field(init=False, repr=False)
    _m: np.ndarray = field(init=False, repr=False)
    _c: np.ndarray = field(init=False, repr=False)
    _least_capable_first: np.ndarray = field(init=False, repr=False)
    #: ``(N, floor)`` → what it enumerates, filled by ``setdefault``: two
    #: threads sharing the optimizer may both enumerate a key, and both
    #: then read the one entry kept.
    _enumerated: dict[tuple[int, int], _Enumerated] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.models) == 0:
            raise ValueError("need at least one node model")
        if len(self.models) != len(self.dirty_coeffs):
            raise ValueError("models and dirty_coeffs must align per node")
        self._k = np.asarray(self.dirty_coeffs, dtype=np.float64)
        if (self._k < 0).any():
            raise ValueError("dirty coefficients must be non-negative")
        self._m = np.array([mod.slope for mod in self.models], dtype=np.float64)
        self._c = np.array([mod.intercept for mod in self.models], dtype=np.float64)
        self._least_capable_first = np.lexsort((-self._m, -self._c))

    @property
    def num_partitions(self) -> int:
        return len(self.models)

    def plan_from(
        self, x: np.ndarray, total_items: int, alpha: float = float("nan")
    ) -> PartitionPlan:
        """Round real sizes summing to ``total_items`` and predict what
        the integer plan costs (``alpha`` records the weight that chose
        it, NaN when none did)."""
        sizes = _largest_remainder_round(x, total_items)
        return PartitionPlan(
            sizes=sizes,
            alpha=alpha,
            predicted_makespan_s=predict_makespan(self.models, sizes),
            predicted_dirty_energy_j=predict_dirty_energy(self.models, self._k, sizes),
        )

    def equal_split_plan(self, total_items: int) -> PartitionPlan:
        """The stratified baseline: equal sizes, no heterogeneity awareness."""
        p = self.num_partitions
        return self.plan_from(np.full(p, total_items / p), total_items)

    def _vertices(self, total_items: int, idle: np.ndarray) -> list[_Vertex]:
        """The LP's front over the non-idle nodes, fastest → greenest.

        Idle nodes hold nothing and constrain nothing; an active node
        bounds the makespan by its intercept even when left empty, as
        in the paper's LP.
        """
        active = np.flatnonzero(~idle)
        m, c, k = self._m[active], self._c[active], self._k[active]
        # Joules per extra item; among equals the faster node fills first.
        cheapest_first = np.lexsort((m, k * m))
        active = active[cheapest_first]
        m, c, k = m[cheapest_first], c[cheapest_first], k[cheapest_first]
        flat = m == 0.0  # size-insensitive: holds anything once v ≥ c_i
        inv = np.where(flat, 0.0, 1.0 / np.where(flat, 1.0, m))
        # Makespan at which the j cheapest nodes, each filled to
        # (v − c_i)/m_i, hold exactly N — the front's breakpoints.
        with np.errstate(divide="ignore"):
            levels = (total_items + np.cumsum(c * inv)) / np.cumsum(inv)
        levels[np.logical_or.accumulate(flat)] = -np.inf
        levels = np.unique(np.maximum(levels, max(float(c.max()), 0.0)))
        # One row per level: fill cheapest-first up to capacity.
        capacity = np.where(flat, np.inf, (levels[:, None] - c) * inv)
        ahead = np.cumsum(capacity, axis=1)
        ahead = np.hstack([np.zeros((levels.size, 1)), ahead[:, :-1]])
        x = np.clip(total_items - ahead, 0.0, capacity)
        # A node emptied at a breakpoint, up to round-off, holds nothing;
        # its crumb goes to the row's largest share so the row still sums to N.
        crumbs = np.where(x < 1e-9, x, 0.0)
        x -= crumbs
        x[np.arange(levels.size), x.argmax(axis=1)] += crumbs.sum(axis=1)
        # Non-increasing by construction; pin the round-off. Where every
        # node still filling ties in k·m (two identical nodes at night)
        # the tail keeps its energy while one of them drains: no gain
        # to the LP, but the floor rule below idles the drained node.
        energy = np.minimum.accumulate((m * x + c) @ k)
        sizes = np.zeros((levels.size, self.num_partitions))
        sizes[:, active] = x
        return list(zip(levels.tolist(), energy.tolist(), sizes))

    def _sliver(self, x: np.ndarray, idle: np.ndarray, min_items: int) -> int | None:
        """The node the floor rule retires next, if any.

        Below-floor nodes (zeros included) should idle: a node left at
        zero still floors the makespan with its intercept (v ≥ c_i),
        and a sliver runs on an extrapolated cost model. The least
        capable offender goes first — largest intercept, then largest
        slope; each drop only relaxes the makespan constraint set.
        """
        slivers = (x < min_items - 1e-9) & ~idle
        if not slivers.any() or int(idle.sum()) >= self.num_partitions - 1:
            return None
        return next(i for i in self._least_capable_first if slivers[i])

    def _floored(
        self, total_items: int, min_items: int, idle: np.ndarray, lo: float, hi: float
    ) -> Iterator[tuple[float, _Vertex]]:
        """Where the floor rule ends for each α in [lo, hi]: ``(highest
        α, vertex)`` per band of α, highest band first.

        The rule is the standard LP-relaxation heuristic for
        semi-continuous variables: take α's vertex, idle one sliver
        node, recompute. A vertex is α's optimum between the tie points
        with its neighbours, so following each vertex with its own band
        visits exactly the plans some α leads to.
        """
        vertices = self._vertices(total_items, idle)
        for j, vertex in enumerate(vertices):
            last = j + 1 == len(vertices)
            above = _tie_alpha(vertices[j - 1], vertex) if j else 1.0
            # α = 0 itself belongs to the greenest end, however flat the
            # tail before it; no other vertex reaches below a statable α.
            below = 0.0 if last else max(_tie_alpha(vertex, vertices[j + 1]), _UNSTATABLE)
            below, above = max(lo, below), min(hi, above)
            # Too narrow to be anything but round-off re-walking a
            # neighbour's path after a node was idled.
            if above - below <= _UNSTATABLE and not (last and below == 0.0):
                continue
            x = vertex[2]
            drop = self._sliver(x, idle, min_items)
            if drop is None:
                # Judged as the engine will bill it: unlike the LP's rows,
                # a node left empty takes no time and burns nothing.
                energy = predict_dirty_energy(self.models, self._k, x)
                yield above, (predict_makespan(self.models, x), energy, x)
            else:
                retired = idle.copy()
                retired[drop] = True
                yield from self._floored(total_items, min_items, retired, below, above)

    def _bands(self, total_items: int, min_items: int) -> list[tuple[float, _Vertex]]:
        """The α axis cut into bands, highest first: ``(highest α, the
        band's vertex)``. Without a floor these are the LP's vertices,
        each with the α range whose weighted sum it minimises."""
        if total_items <= 0:
            raise ValueError("total_items must be positive")
        if min_items < 0:
            raise ValueError("min_items must be non-negative")
        nobody = np.zeros(self.num_partitions, dtype=bool)
        reached = list(self._floored(total_items, min_items, nobody, 0.0, 1.0))
        # Idling different nodes for different α can leave one band's
        # plan beaten on both counts by another's; serve that band with
        # its fastest dominator, so every plan handed out is on the front.
        served = []
        for above, v in reached:
            rivals = (w for _, w in reached if w[0] <= v[0] and w[1] <= v[1])
            served.append((above, min(rivals, key=lambda w: w[:2])))
        return served

    def _enumerate(self, total_items: int, min_items: int) -> _Enumerated:
        """The bands and the front of ``(total_items, min_items)`` as
        integer plans, computed on the first call and kept."""
        kept = self._enumerated.get((total_items, min_items))
        if kept is not None:
            return kept
        bands = self._bands(total_items, min_items)
        distinct = {v[:2]: v[2] for _, v in bands}
        enumerated = (
            [(above, self.plan_from(v[2], total_items)) for above, v in bands],
            [self.plan_from(distinct[point], total_items) for point in sorted(distinct)],
        )
        return self._enumerated.setdefault((total_items, min_items), enumerated)

    def front(self, total_items: int, min_items: int = 0) -> list[PartitionPlan]:
        """The Pareto-optimal plans, fastest first, greenest last.

        Parameters
        ----------
        min_items:
            Semi-continuous lower bound: each partition is either empty
            (its node idles) or holds at least ``min_items`` items. The
            time model was fitted on samples no smaller than this, so
            slivers below it would run on an extrapolated — and for
            relative-support mining, badly wrong — cost model. ``0`` is
            the paper's plain LP, whose front this then is exactly.

        Raises
        ------
        ValueError
            For non-positive item counts or a negative floor.
        """
        _, plans = self._enumerate(total_items, min_items)
        # Copies: the kept plans are shared by every later caller.
        return [dataclasses.replace(plan, sizes=plan.sizes.copy()) for plan in plans]

    def solve(self, total_items: int, alpha: float, min_items: int = 0) -> PartitionPlan:
        """The front vertex minimising ``α·T + (1−α)·E`` over the nodes
        the floor leaves running — the paper's scalarised LP at tradeoff
        weight ``α``.

        Raises
        ------
        ValueError
            For α outside [0, 1], non-positive item counts or a
            negative floor.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        bands, _ = self._enumerate(total_items, min_items)
        # α's band is the lowest one that still reaches up to it.
        plan = next((plan for above, plan in reversed(bands) if above >= alpha), bands[0][1])
        return dataclasses.replace(plan, sizes=plan.sizes.copy(), alpha=alpha)

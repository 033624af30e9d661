"""Scalarized multi-objective LP (paper Section III-D).

The partition-sizing problem:

.. math::

    \\min\\; \\alpha v + (1-\\alpha) \\sum_i k_i (m_i x_i + c_i)
    \\quad\\text{s.t.}\\quad v \\ge m_i x_i + c_i,\\; x_i \\ge 0,\\;
    \\sum_i x_i = N

with ``v`` the makespan, ``m_i, c_i`` the learned time-model
coefficients and ``k_i`` the dirty-power coefficients. Scalarization
guarantees every solution is Pareto-optimal; ``α = 1`` is the Het-Aware
special case. Solved with ``scipy.optimize.linprog`` (HiGHS), then
rounded to integer sizes with the largest-remainder method.

``normalize=True`` implements the paper's proposed fix for the scale
mismatch between the two objectives ("in future … normalizing both the
objective functions to 0-1 scale"): both terms are divided by their
value at the equal-split baseline, making α scale-free.

:func:`waterfill_makespan` is an independent closed-form solution of
the α=1 case, used to cross-check the LP in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from repro.core.heterogeneity import LinearTimeModel


@dataclass
class PartitionPlan:
    """The optimizer's output: integer partition sizes plus predictions."""

    sizes: np.ndarray
    alpha: float
    predicted_makespan_s: float
    predicted_dirty_energy_j: float
    lp_objective: float = float("nan")

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
    order = np.argsort(-(x - floors))
    out = floors.copy()
    for idx in order[:remainder]:
        out[idx] += 1
    return out


def predict_makespan(models: Sequence[LinearTimeModel], sizes: np.ndarray) -> float:
    """Max predicted runtime across partitions (empty partitions are free)."""
    times = [
        models[i].predict(float(s)) if s > 0 else 0.0 for i, s in enumerate(sizes)
    ]
    return max(times)


def predict_dirty_energy(
    models: Sequence[LinearTimeModel], dirty_coeffs: np.ndarray, sizes: np.ndarray
) -> float:
    """Σ k_i · f_i(x_i) over non-empty partitions."""
    total = 0.0
    for i, s in enumerate(sizes):
        if s > 0:
            total += dirty_coeffs[i] * models[i].predict(float(s))
    return float(total)


def waterfill_makespan(
    models: Sequence[LinearTimeModel], total_items: int
) -> np.ndarray:
    """Closed-form α=1 solution: equalize ``m_i x_i + c_i`` by water-filling.

    Finds ``v`` with ``Σ max(0, (v − c_i)/m_i) = N`` by bisection and
    returns the (real-valued) sizes. Nodes whose intercept already
    exceeds ``v`` get zero items.
    """
    m = np.array([mod.slope for mod in models], dtype=np.float64)
    c = np.array([mod.intercept for mod in models], dtype=np.float64)
    if (m <= 0).all():
        # All nodes are size-insensitive; split evenly.
        return np.full(len(models), total_items / len(models))
    usable = m > 0

    def assigned(v: float) -> float:
        x = np.zeros_like(m)
        x[usable] = np.maximum(0.0, (v - c[usable]) / m[usable])
        return float(x.sum())

    lo = float(c.min())
    # At this level even the slowest usable node alone holds every item.
    hi = float(total_items * m[usable].max() + c.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if assigned(mid) < total_items:
            lo = mid
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    x = np.zeros_like(m)
    x[usable] = np.maximum(0.0, (v - c[usable]) / m[usable])
    # Nodes with m == 0 take nothing here; renormalise tiny drift.
    if x.sum() > 0:
        x *= total_items / x.sum()
    return x


@dataclass
class ParetoOptimizer:
    """The scalarized LP solver.

    Parameters
    ----------
    models:
        Per-node time models (from progressive sampling), node order.
    dirty_coeffs:
        Per-node dirty-power coefficients ``k_i`` (W), same order.
    normalize:
        Normalize both objectives by their equal-split value so α is
        scale-free (paper's future-work extension).
    """

    models: Sequence[LinearTimeModel]
    dirty_coeffs: Sequence[float]
    normalize: bool = False
    _k: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.models) == 0:
            raise ValueError("need at least one node model")
        if len(self.models) != len(self.dirty_coeffs):
            raise ValueError("models and dirty_coeffs must align per node")
        self._k = np.asarray(self.dirty_coeffs, dtype=np.float64)
        if (self._k < 0).any():
            raise ValueError("dirty coefficients must be non-negative")

    @property
    def num_partitions(self) -> int:
        return len(self.models)

    def equal_split_plan(self, total_items: int) -> PartitionPlan:
        """The stratified baseline: equal sizes, no heterogeneity awareness."""
        p = self.num_partitions
        sizes = _largest_remainder_round(
            np.full(p, total_items / p, dtype=np.float64), total_items
        )
        return PartitionPlan(
            sizes=sizes,
            alpha=float("nan"),
            predicted_makespan_s=predict_makespan(self.models, sizes),
            predicted_dirty_energy_j=predict_dirty_energy(self.models, self._k, sizes),
        )

    def _solve_lp(
        self, total_items: int, alpha: float, idle: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """One LP solve with the given idle-node mask; returns (x, obj)."""
        p = self.num_partitions
        m = np.array([mod.slope for mod in self.models], dtype=np.float64)
        c = np.array([mod.intercept for mod in self.models], dtype=np.float64)
        k = self._k

        time_scale = 1.0
        energy_scale = 1.0
        if self.normalize:
            baseline = self.equal_split_plan(total_items)
            time_scale = max(baseline.predicted_makespan_s, 1e-12)
            energy_scale = max(baseline.predicted_dirty_energy_j, 1e-12)

        # Variables z = [x_1..x_p, v].
        cost = np.concatenate(
            [(1.0 - alpha) * k * m / energy_scale, [alpha / time_scale]]
        )
        # m_i x_i − v ≤ −c_i  (idle nodes pay no time at all).
        active = ~idle
        rows = np.flatnonzero(active)
        a_ub = np.zeros((rows.size, p + 1))
        a_ub[np.arange(rows.size), rows] = m[rows]
        a_ub[:, -1] = -1.0
        b_ub = -c[rows]
        a_eq = np.zeros((1, p + 1))
        a_eq[0, :p] = 1.0
        b_eq = np.array([float(total_items)])
        bounds = [
            (0.0, 0.0) if idle[i] else (0.0, None) for i in range(p)
        ] + [(0.0, None)]

        res = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
        )
        if not res.success:
            raise RuntimeError(f"LP failed: {res.message}")
        obj = float(res.fun) + (1.0 - alpha) * float(
            np.sum(k[active] * c[active])
        ) / energy_scale
        return np.maximum(res.x[:p], 0.0), obj

    def solve(self, total_items: int, alpha: float, min_items: int = 0) -> PartitionPlan:
        """Optimize partition sizes for the given tradeoff weight ``α``.

        Parameters
        ----------
        min_items:
            Semi-continuous lower bound: each partition is either empty
            (its node idles) or holds at least ``min_items`` items. The
            time model was fitted on samples no smaller than this, so
            slivers below it would run on an extrapolated — and for
            relative-support mining, badly wrong — cost model. ``0``
            reproduces the paper's plain LP. Enforced by iteratively
            re-solving with sliver nodes forced idle (the standard
            LP-relaxation heuristic for semi-continuous variables).

        Raises
        ------
        ValueError
            For α outside [0, 1] or non-positive item counts.
        RuntimeError
            If the LP solver fails (should not happen: the feasible
            region is a non-empty bounded polytope).
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if total_items <= 0:
            raise ValueError("total_items must be positive")
        if min_items < 0:
            raise ValueError("min_items must be non-negative")
        p = self.num_partitions
        idle = np.zeros(p, dtype=bool)
        x = np.zeros(p)
        obj = float("nan")
        c = np.array([mod.intercept for mod in self.models])
        m = np.array([mod.slope for mod in self.models])
        for _ in range(p):
            x, obj = self._solve_lp(total_items, alpha, idle)
            if min_items == 0:
                break
            # Below-floor nodes (zeros included) should idle: a node left
            # at zero still floors the makespan with its intercept
            # (v ≥ c_i), and a sliver runs on an extrapolated cost model.
            # Retire the least capable offender first — largest intercept,
            # then largest slope — and re-solve; each drop only relaxes
            # the makespan constraint set.
            slivers = (x < min_items - 1e-9) & ~idle
            if not slivers.any() or int(idle.sum()) >= p - 1:
                break
            order = np.lexsort((-m, -c))
            drop = next(i for i in order if slivers[i])
            idle[int(drop)] = True
        sizes = _largest_remainder_round(x, total_items)
        k = self._k
        return PartitionPlan(
            sizes=sizes,
            alpha=alpha,
            predicted_makespan_s=predict_makespan(self.models, sizes),
            predicted_dirty_energy_j=predict_dirty_energy(self.models, k, sizes),
            lp_objective=obj,
        )

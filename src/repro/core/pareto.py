"""Pareto dominance, fronts and hypervolume of objective points (paper
Sections III-D, V-D).

A solution is Pareto-optimal when no objective can improve without
degrading another. The *predicted* time–energy front is enumerated
exactly by :meth:`repro.core.optimizer.ParetoOptimizer.front`; the
helpers here judge any set of ``(makespan, dirty energy)`` points —
measured sweeps such as Figure 5's, on which the equal-split stratified
baseline sits strictly above the front (not Pareto-efficient).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def pareto_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is at least as good as ``b`` in every objective
    and strictly better in at least one (minimization)."""
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.shape != b_arr.shape:
        raise ValueError("objective vectors must have equal length")
    return bool((a_arr <= b_arr).all() and (a_arr < b_arr).any())


def pareto_front(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated points, in input order."""
    pts = [np.asarray(p, dtype=np.float64) for p in points]
    front: list[int] = []
    for i, p in enumerate(pts):
        dominated = any(
            pareto_dominates(q, p) for j, q in enumerate(pts) if j != i
        )
        if not dominated:
            front.append(i)
    return front


def is_pareto_efficient(point: Sequence[float], others: Iterable[Sequence[float]]) -> bool:
    """True when no point in ``others`` dominates ``point``."""
    return not any(pareto_dominates(q, point) for q in others)


def hypervolume_2d(points: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Dominated hypervolume of a 2-D minimization front w.r.t. a
    reference point — a scalar frontier-quality metric for tests.

    Points outside the reference box contribute nothing.
    """
    ref_x, ref_y = float(reference[0]), float(reference[1])
    front_idx = pareto_front(points)
    front = sorted(
        (
            (float(points[i][0]), float(points[i][1]))
            for i in front_idx
            if points[i][0] <= ref_x and points[i][1] <= ref_y
        ),
    )
    volume = 0.0
    prev_y = ref_y
    for x, y in front:
        if y < prev_y:
            volume += (ref_x - x) * (prev_y - y)
            prev_y = y
    return volume

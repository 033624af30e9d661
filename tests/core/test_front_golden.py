"""Golden characterisation of the partition-sizing solver.

Written against the code *before* ``ParetoOptimizer`` enumerated the
exact front: every literal in ``GOLDEN`` was printed by the parent
commit (``python tests/core/test_front_golden.py`` with the parent's
``src`` on ``PYTHONPATH``), where ``solve`` was one ``linprog`` call per
α, the predicted frontier was a 14-point α grid and the budget planner
bisected α. The single-path solver has to be *no worse* than each of
them on the old mechanism's own terms:

- per (α, floor) the new plan's scalarised predicted objective is ≤
  the recorded one, up to one item of integer rounding;
- ``front()`` dominates at least the hypervolume the grid sweep did;
- the budget plan is at least as fast as the bisection's answer and
  its integer plan is within budget.

Fixtures are the ``test_optimizer`` / ``test_budget`` / ``test_pareto``
ones plus ``paper_cluster(4|8)``-shaped models (speeds 4..1, the dirty
coefficients ``paper_cluster(seed=0)`` generates, two of them zero) and
the same eight nodes at night, where identical nodes tie in ``k·m``.
"""

import numpy as np
import pytest

from repro.core.budget import CarbonBudgetPlanner
from repro.core.heterogeneity import LinearTimeModel
from repro.core.optimizer import ParetoOptimizer
from repro.core.pareto import hypervolume_2d

ALPHAS = (1.0, 0.997, 0.994, 0.99, 0.9, 0.5, 0.0)

#: The grid the parent's ``frontier_sweep`` defaulted to.
OLD_GRID = (
    1.0, 0.9999, 0.9995, 0.999, 0.995, 0.99, 0.97, 0.95, 0.9, 0.8, 0.6, 0.4, 0.2, 0.0,
)

PAPER_K = (192.947, 50.811, 0.0, 0.0, 248.722, 72.382, 0.0, 0.0)


def _speeds(speeds, intercept, scaled):
    return [
        LinearTimeModel(slope=1.0 / s, intercept=intercept / s if scaled else intercept)
        for s in speeds
    ]


#: name → (models, dirty coefficients, N).
FIXTURES = {
    "optimizer": (_speeds((4.0, 3.0, 2.0, 1.0), 0.5, True), (300.0, 200.0, 50.0, 0.0), 1000),
    "budget": (_speeds((4.0, 3.0, 2.0, 1.0), 0.2, False), (300.0, 200.0, 50.0, 0.0), 1000),
    "pareto": (_speeds((4.0, 2.0, 1.0), 0.1, False), (300.0, 100.0, 0.0), 500),
    "paper4": (
        [LinearTimeModel(slope=1e-3 / s, intercept=0.02 / s) for s in (4.0, 3.0, 2.0, 1.0)],
        PAPER_K[:4],
        6000,
    ),
    "paper8": (
        [LinearTimeModel(slope=1e-3 / s, intercept=0.02 / s) for s in (4.0, 3.0, 2.0, 1.0) * 2],
        PAPER_K,
        6000,
    ),
    # Night: no solar, so the two nodes of each type tie exactly in k·m.
    "night8": (
        [LinearTimeModel(slope=1e-3 / s, intercept=0.02 / s) for s in (4.0, 3.0, 2.0, 1.0) * 2],
        (440.0, 345.0, 250.0, 155.0) * 2,
        6000,
    ),
}


def _floors(name):
    """``0`` (the paper's plain LP) and the framework's auto floor: the
    smallest profiled sample (5% of N), capped at N/p."""
    models, _k, n = FIXTURES[name]
    return {"0": 0, "auto": min(round(0.05 * n), n // len(models))}


def _optimizer(name):
    models, k, _n = FIXTURES[name]
    return ParetoOptimizer(models=models, dirty_coeffs=list(k))


def _objectives(plan):
    return (plan.predicted_makespan_s, plan.predicted_dirty_energy_j)


def _record():
    """What the parent commit answered; prints the ``GOLDEN`` literal."""
    golden = {}
    for name, (_models, _k, n) in FIXTURES.items():
        opt = _optimizer(name)
        for label, floor in _floors(name).items():
            solves = {}
            for alpha in ALPHAS:
                plan = opt.solve(n, alpha, min_items=floor)
                solves[alpha] = ([int(s) for s in plan.sizes], *_objectives(plan))
            grid = [_objectives(opt.solve(n, a, min_items=floor)) for a in OLD_GRID]
            reference = (1.05 * max(t for t, _ in grid), 1.05 * max(e for _, e in grid) + 1.0)
            budget = 0.5 * (solves[1.0][2] + solves[0.0][2])
            bisected = CarbonBudgetPlanner(opt).plan(n, budget, min_items=floor)
            golden[f"{name}/{label}"] = {
                "solve": solves,
                "reference": reference,
                "grid_hypervolume": hypervolume_2d(grid, reference),
                "budget_j": budget,
                "bisection": ([int(s) for s in bisected.sizes], *_objectives(bisected)),
            }
    return golden


GOLDEN = {
    "optimizer/0": {
        "solve": {
            1.0: ([400, 300, 200, 100], 100.5, 55083.333333333336),
            0.997: ([400, 300, 200, 100], 100.5, 55083.333333333336),
            0.994: ([0, 500, 333, 167], 167.5, 41704.166666666664),
            0.99: ([0, 0, 667, 333], 333.75, 16687.5),
            0.9: ([0, 0, 0, 1000], 1000.5, 0.0),
            0.5: ([0, 0, 0, 1000], 1000.5, 0.0),
            0.0: ([0, 0, 0, 1000], 1000.5, 0.0),
        },
        "reference": (1050.525, 57838.50000000001),
        "grid_hypervolume": 33197729.295833346,
        "budget_j": 27541.666666666668,
        "bisection": ([0, 0, 667, 333], 333.75, 16687.5),
    },
    "optimizer/auto": {
        "solve": {
            1.0: ([400, 300, 200, 100], 100.5, 55083.333333333336),
            0.997: ([400, 300, 200, 100], 100.5, 55083.333333333336),
            0.994: ([0, 500, 333, 167], 167.5, 41704.166666666664),
            0.99: ([0, 0, 667, 333], 333.75, 16687.5),
            0.9: ([0, 0, 0, 1000], 1000.5, 0.0),
            0.5: ([0, 0, 0, 1000], 1000.5, 0.0),
            0.0: ([0, 0, 0, 1000], 1000.5, 0.0),
        },
        "reference": (1050.525, 57838.50000000001),
        "grid_hypervolume": 33197729.295833346,
        "budget_j": 27541.666666666668,
        "bisection": ([0, 0, 667, 333], 333.75, 16687.5),
    },
    "budget/0": {
        "solve": {
            1.0: ([400, 300, 200, 100], 100.2, 55110.0),
            0.997: ([400, 300, 200, 100], 100.2, 55110.0),
            0.994: ([0, 500, 333, 167], 167.2, 41708.33333333333),
            0.99: ([0, 0, 667, 333], 333.7, 16685.0),
            0.9: ([0, 0, 0, 1000], 1000.2, 0.0),
            0.5: ([0, 0, 0, 1000], 1000.2, 0.0),
            0.0: ([0, 0, 0, 1000], 1000.2, 0.0),
        },
        "reference": (1050.21, 57866.5),
        "grid_hypervolume": 33216393.665,
        "budget_j": 27555.0,
        "bisection": ([0, 0, 667, 333], 333.7, 16685.0),
    },
    "budget/auto": {
        "solve": {
            1.0: ([400, 300, 200, 100], 100.2, 55110.0),
            0.997: ([400, 300, 200, 100], 100.2, 55110.0),
            0.994: ([0, 500, 333, 167], 167.2, 41708.33333333333),
            0.99: ([0, 0, 667, 333], 333.7, 16685.0),
            0.9: ([0, 0, 0, 1000], 1000.2, 0.0),
            0.5: ([0, 0, 0, 1000], 1000.2, 0.0),
            0.0: ([0, 0, 0, 1000], 1000.2, 0.0),
        },
        "reference": (1050.21, 57866.5),
        "grid_hypervolume": 33216393.665,
        "budget_j": 27555.0,
        "bisection": ([0, 0, 667, 333], 333.7, 16685.0),
    },
    "pareto/0": {
        "solve": {
            1.0: ([286, 143, 71], 71.6, 28640.0),
            0.997: ([286, 143, 71], 71.6, 28640.0),
            0.994: ([286, 143, 71], 71.6, 28640.0),
            0.99: ([0, 333, 167], 167.1, 16660.0),
            0.9: ([0, 0, 500], 500.1, 0.0),
            0.5: ([0, 0, 500], 500.1, 0.0),
            0.0: ([0, 0, 500], 500.1, 0.0),
        },
        "reference": (525.105, 30073.0),
        "grid_hypervolume": 5355355.865,
        "budget_j": 14320.0,
        "bisection": ([0, 0, 500], 500.1, 0.0),
    },
    "pareto/auto": {
        "solve": {
            1.0: ([286, 143, 71], 71.6, 28640.0),
            0.997: ([286, 143, 71], 71.6, 28640.0),
            0.994: ([286, 143, 71], 71.6, 28640.0),
            0.99: ([0, 333, 167], 167.1, 16660.0),
            0.9: ([0, 0, 500], 500.1, 0.0),
            0.5: ([0, 0, 500], 500.1, 0.0),
            0.0: ([0, 0, 500], 500.1, 0.0),
        },
        "reference": (525.105, 30073.0),
        "grid_hypervolume": 5355355.865,
        "budget_j": 14320.0,
        "bisection": ([0, 0, 500], 500.1, 0.0),
    },
    "paper4/0": {
        "solve": {
            1.0: ([2412, 1804, 1196, 588], 0.608, 148.204864),
            0.997: ([2412, 1804, 1196, 588], 0.608, 148.204864),
            0.994: ([0, 3010, 2000, 990], 1.01, 51.31911),
            0.99: ([0, 3010, 2000, 990], 1.01, 51.31911),
            0.9: ([0, 0, 4007, 1993], 2.0134999999999996, 0.0),
            0.5: ([0, 0, 4007, 1993], 2.0134999999999996, 0.0),
            0.0: ([0, 0, 0, 6000], 6.02, 0.0),
        },
        "reference": (6.321, 156.61510719999998),
        "grid_hypervolume": 783.6650252206,
        "budget_j": 74.102432,
        "bisection": ([0, 3010, 2000, 990], 1.01, 51.31911),
    },
    "paper4/auto": {
        "solve": {
            1.0: ([2412, 1804, 1196, 588], 0.608, 148.204864),
            0.997: ([2412, 1804, 1196, 588], 0.608, 148.204864),
            0.994: ([0, 3010, 2000, 990], 1.01, 51.31911),
            0.99: ([0, 3010, 2000, 990], 1.01, 51.31911),
            0.9: ([0, 0, 4007, 1993], 2.0134999999999996, 0.0),
            0.5: ([0, 0, 4007, 1993], 2.0134999999999996, 0.0),
            0.0: ([0, 0, 0, 6000], 6.02, 0.0),
        },
        "reference": (6.321, 156.61510719999998),
        "grid_hypervolume": 783.6650252206,
        "budget_j": 74.102432,
        "bisection": ([0, 3010, 2000, 990], 1.01, 51.31911),
    },
    "paper8/0": {
        "solve": {
            1.0: ([1212, 904, 596, 288, 1212, 904, 596, 288], 0.30800000000000005, 173.97749599999997),
            0.997: ([0, 1510, 1000, 490, 0, 1510, 1000, 490], 0.51, 62.82843000000001),
            0.994: ([0, 2013, 1335, 658, 0, 0, 1336, 658], 0.678, 34.432921),
            0.99: ([0, 0, 2007, 993, 0, 0, 2007, 993], 1.0135, 0.0),
            0.9: ([0, 0, 2007, 993, 0, 0, 2007, 993], 1.0135, 0.0),
            0.5: ([0, 0, 2007, 993, 0, 0, 2007, 993], 1.0135, 0.0),
            0.0: ([0, 0, 0, 0, 0, 0, 0, 6000], 6.02, 0.0),
        },
        "reference": (6.321, 183.67637079999997),
        "grid_hypervolume": 1037.6684489233996,
        "budget_j": 86.98874799999999,
        "bisection": ([0, 1510, 1000, 490, 0, 1510, 1000, 490], 0.51, 62.82843000000001),
    },
    "paper8/auto": {
        "solve": {
            1.0: ([1273, 949, 626, 0, 1273, 950, 626, 303], 0.3233333333333333, 182.58497058333333),
            0.997: ([0, 1510, 1000, 490, 0, 1510, 1000, 490], 0.51, 62.82843000000001),
            0.994: ([0, 2013, 1335, 658, 0, 0, 1336, 658], 0.678, 34.432921),
            0.99: ([0, 0, 2007, 993, 0, 0, 2007, 993], 1.0135, 0.0),
            0.9: ([0, 0, 2007, 993, 0, 0, 2007, 993], 1.0135, 0.0),
            0.5: ([0, 0, 2007, 993, 0, 0, 2007, 993], 1.0135, 0.0),
            0.0: ([0, 0, 0, 0, 0, 0, 0, 6000], 6.02, 0.0),
        },
        "reference": (6.321, 192.71421911250002),
        "grid_hypervolume": 1090.1190058165153,
        "budget_j": 91.29248529166667,
        "bisection": ([0, 1510, 1000, 490, 0, 1510, 1000, 490], 0.51, 62.82843000000001),
    },
    "night8/0": {
        "solve": {
            1.0: ([1212, 904, 596, 288, 1212, 904, 596, 288], 0.30800000000000005, 733.0400000000001),
            0.997: ([1340, 1000, 660, 0, 1340, 1000, 660, 0], 0.34, 703.8),
            0.994: ([1717, 1283, 0, 0, 1717, 1283, 0, 0], 0.4343333333333333, 681.83),
            0.99: ([1717, 1283, 0, 0, 1717, 1283, 0, 0], 0.4343333333333333, 681.83),
            0.9: ([3000, 0, 0, 0, 3000, 0, 0, 0], 0.755, 664.4),
            0.5: ([3000, 0, 0, 0, 3000, 0, 0, 0], 0.755, 664.4),
            0.0: ([0, 0, 0, 0, 6000, 0, 0, 0], 1.505, 662.1999999999999),
        },
        "reference": (1.58025, 770.6920000000001),
        "grid_hypervolume": 123.89311366666682,
        "budget_j": 697.62,
        "bisection": ([1717, 1283, 0, 0, 1717, 1283, 0, 0], 0.4343333333333333, 681.83),
    },
    "night8/auto": {
        "solve": {
            1.0: ([1273, 949, 626, 0, 1273, 950, 626, 303], 0.3233333333333333, 719.0100000000001),
            0.997: ([1340, 1000, 660, 0, 1340, 1000, 660, 0], 0.34, 703.8),
            0.994: ([1717, 1283, 0, 0, 1717, 1283, 0, 0], 0.4343333333333333, 681.83),
            0.99: ([1717, 1283, 0, 0, 1717, 1283, 0, 0], 0.4343333333333333, 681.83),
            0.9: ([3000, 0, 0, 0, 3000, 0, 0, 0], 0.755, 664.4),
            0.5: ([3000, 0, 0, 0, 3000, 0, 0, 0], 0.755, 664.4),
            0.0: ([0, 0, 0, 0, 6000, 0, 0, 0], 1.505, 662.1999999999999),
        },
        "reference": (1.58025, 755.9605000000001),
        "grid_hypervolume": 105.03334845833352,
        "budget_j": 690.605,
        "bisection": ([1717, 1283, 0, 0, 1717, 1283, 0, 0], 0.4343333333333333, 681.83),
    },
}

CASES = sorted(GOLDEN)


def _case(case):
    name, label = case.split("/")
    models, k, n = FIXTURES[name]
    return _optimizer(name), models, np.asarray(k), n, _floors(name)[label]


@pytest.mark.parametrize("case", CASES)
def test_scalarised_objective_no_worse(case):
    opt, models, k, n, floor = _case(case)
    slopes = np.array([m.slope for m in models])
    for alpha, (_sizes, old_t, old_e) in GOLDEN[case]["solve"].items():
        plan = opt.solve(n, alpha, min_items=floor)
        assert plan.sizes.sum() == n
        new_t, new_e = _objectives(plan)
        one_item = alpha * slopes.max() + (1.0 - alpha) * (k * slopes).max()
        old = alpha * old_t + (1.0 - alpha) * old_e
        assert alpha * new_t + (1.0 - alpha) * new_e <= old + one_item + 1e-9 * abs(old)


@pytest.mark.parametrize("case", CASES)
def test_front_hypervolume_covers_the_grid_sweep(case):
    opt, _models, _k, n, floor = _case(case)
    points = [_objectives(p) for p in opt.front(n, min_items=floor)]
    golden = GOLDEN[case]
    volume = hypervolume_2d(points, golden["reference"])
    assert volume >= golden["grid_hypervolume"] * (1.0 - 1e-9)


@pytest.mark.parametrize("case", CASES)
def test_budget_plan_no_slower_than_bisection(case):
    opt, _models, _k, n, floor = _case(case)
    golden = GOLDEN[case]
    plan = CarbonBudgetPlanner(opt).plan(n, golden["budget_j"], min_items=floor)
    assert plan.sizes.sum() == n
    assert plan.predicted_dirty_energy_j <= golden["budget_j"]
    assert plan.predicted_makespan_s <= golden["bisection"][1] + 1e-9
    assert all(s == 0 or s >= floor - 1 for s in plan.sizes)


if __name__ == "__main__":
    import pprint

    pprint.pprint(_record(), width=100, sort_dicts=False)

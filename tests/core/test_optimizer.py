"""Unit tests for the partition-sizing solver (front + scalarised solve)."""

import numpy as np
import pytest

from repro.core.heterogeneity import LinearTimeModel
from repro.core.optimizer import (
    ParetoOptimizer,
    PartitionPlan,
    _largest_remainder_round,
    predict_dirty_energy,
    predict_makespan,
)


def models_for_speeds(speeds, intercept=0.5):
    """Per-node models with slope inversely proportional to speed."""
    return [LinearTimeModel(slope=1.0 / s, intercept=intercept / s) for s in speeds]


@pytest.fixture()
def optimizer():
    return ParetoOptimizer(
        models=models_for_speeds([4.0, 3.0, 2.0, 1.0]),
        dirty_coeffs=[300.0, 200.0, 50.0, 0.0],
    )


class TestRounding:
    def test_preserves_sum(self):
        out = _largest_remainder_round(np.array([1.4, 2.3, 3.3]), 7)
        assert out.sum() == 7

    def test_exact_integers_untouched(self):
        out = _largest_remainder_round(np.array([2.0, 3.0]), 5)
        assert out.tolist() == [2, 3]

    def test_largest_fraction_wins(self):
        out = _largest_remainder_round(np.array([0.9, 0.1]), 1)
        assert out.tolist() == [1, 0]


class TestPredictions:
    def test_makespan_is_max(self):
        models = models_for_speeds([2.0, 1.0], intercept=0.0)
        sizes = np.array([10, 10])
        assert predict_makespan(models, sizes) == pytest.approx(10.0)

    def test_empty_partition_costs_nothing(self):
        models = [LinearTimeModel(slope=0.1, intercept=5.0)] * 2
        assert predict_makespan(models, np.array([0, 10])) == pytest.approx(6.0)

    def test_dirty_energy_weighted_sum(self):
        models = [LinearTimeModel(slope=1.0, intercept=0.0)] * 2
        k = np.array([2.0, 3.0])
        assert predict_dirty_energy(models, k, np.array([5, 5])) == pytest.approx(25.0)


class TestEqualSplit:
    def test_sizes_equal(self, optimizer):
        plan = optimizer.equal_split_plan(100)
        assert plan.sizes.tolist() == [25, 25, 25, 25]

    def test_remainder_spread(self, optimizer):
        plan = optimizer.equal_split_plan(102)
        assert plan.sizes.sum() == 102
        assert plan.sizes.max() - plan.sizes.min() <= 1

    def test_baseline_bottlenecked_by_slowest(self, optimizer):
        plan = optimizer.equal_split_plan(400)
        # Slowest node (speed 1) processes 100 items at slope 1.
        assert plan.predicted_makespan_s == pytest.approx(100.5, rel=0.01)


class TestHetAwareSolve:
    def test_sizes_sum_to_total(self, optimizer):
        plan = optimizer.solve(1000, alpha=1.0)
        assert plan.sizes.sum() == 1000

    def test_alpha_one_proportional_to_speed(self, optimizer):
        plan = optimizer.solve(1000, alpha=1.0)
        # Sizes should be close to 400/300/200/100 (speed-proportional).
        assert np.allclose(plan.sizes, [400, 300, 200, 100], atol=15)

    def test_alpha_one_matches_waterfill(self, optimizer):
        plan = optimizer.solve(10_000, alpha=1.0)
        assert plan.sizes.tolist() == optimizer.front(10_000)[0].sizes.tolist()
        # Water-filling: every node finishes together.
        times = [m.predict(float(s)) for m, s in zip(optimizer.models, plan.sizes)]
        assert max(times) - min(times) <= max(m.slope for m in optimizer.models)

    def test_beats_equal_split_makespan(self, optimizer):
        equal = optimizer.equal_split_plan(1000)
        het = optimizer.solve(1000, alpha=1.0)
        assert het.predicted_makespan_s < equal.predicted_makespan_s

    def test_alpha_zero_minimizes_energy(self, optimizer):
        plan = optimizer.solve(1000, alpha=0.0)
        # All load goes to the zero-dirty node (index 3).
        assert plan.sizes[3] == 1000

    def test_energy_monotone_in_alpha(self, optimizer):
        energies = [
            optimizer.solve(1000, alpha=a).predicted_dirty_energy_j
            for a in (1.0, 0.99, 0.9, 0.5, 0.0)
        ]
        assert all(e1 >= e2 - 1e-6 for e1, e2 in zip(energies, energies[1:]))

    def test_makespan_monotone_decreasing_in_alpha(self, optimizer):
        makespans = [
            optimizer.solve(1000, alpha=a).predicted_makespan_s
            for a in (0.0, 0.5, 0.9, 0.99, 1.0)
        ]
        assert all(m1 >= m2 - 1e-6 for m1, m2 in zip(makespans, makespans[1:]))

    def test_solutions_not_dominated_within_sweep(self, optimizer):
        """Scalarization guarantees Pareto optimality: no sweep point may
        dominate another in both objectives (up to rounding noise)."""
        plans = [optimizer.solve(2000, alpha=a) for a in (1.0, 0.99, 0.9, 0.5, 0.0)]
        pts = [(p.predicted_makespan_s, p.predicted_dirty_energy_j) for p in plans]
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                if i != j:
                    strictly_better = a[0] < b[0] - 1e-6 and a[1] < b[1] - 1e-6
                    assert not strictly_better


class TestMinItems:
    def test_floor_respected_or_idle(self, optimizer):
        plan = optimizer.solve(1000, alpha=0.9, min_items=100)
        for s in plan.sizes:
            assert s == 0 or s >= 99  # rounding may shave one item

    def test_zero_floor_matches_plain(self, optimizer):
        a = optimizer.solve(1000, alpha=1.0, min_items=0)
        b = optimizer.solve(1000, alpha=1.0)
        assert a.sizes.tolist() == b.sizes.tolist()

    def test_negative_rejected(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.solve(1000, alpha=1.0, min_items=-1)

    def test_tiny_total_degenerates_gracefully(self, optimizer):
        plan = optimizer.solve(10, alpha=1.0, min_items=100)
        assert plan.sizes.sum() == 10


class TestValidation:
    def test_bad_alpha(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.solve(100, alpha=-0.1)
        with pytest.raises(ValueError):
            optimizer.solve(100, alpha=1.1)

    def test_bad_total(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.solve(0, alpha=1.0)

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            ParetoOptimizer(models=models_for_speeds([1.0]), dirty_coeffs=[1.0, 2.0])
        with pytest.raises(ValueError):
            ParetoOptimizer(models=[], dirty_coeffs=[])

    def test_negative_dirty_coeff_rejected(self):
        with pytest.raises(ValueError):
            ParetoOptimizer(
                models=models_for_speeds([1.0]), dirty_coeffs=[-5.0]
            )

    def test_plan_validates_sizes(self):
        with pytest.raises(ValueError):
            PartitionPlan(
                sizes=np.array([-1, 2]),
                alpha=1.0,
                predicted_makespan_s=0.0,
                predicted_dirty_energy_j=0.0,
            )


class TestWaterfill:
    """The fastest front vertex equalises ``m_i x_i + c_i`` (the α=1
    water-filling solution)."""

    @staticmethod
    def fastest(models, total):
        opt = ParetoOptimizer(models=models, dirty_coeffs=[1.0] * len(models))
        return opt.front(total)[0].sizes

    def test_respects_total(self):
        x = self.fastest(models_for_speeds([4.0, 2.0, 1.0]), 700)
        assert x.sum() == 700

    def test_proportional_when_intercepts_equal(self):
        x = self.fastest(models_for_speeds([4.0, 1.0], intercept=0.0), 500)
        assert x[0] == pytest.approx(400, rel=0.01)

    def test_zero_slope_models(self):
        models = [LinearTimeModel(slope=0.0, intercept=1.0)] * 3
        x = self.fastest(models, 300)
        assert x.sum() == 300

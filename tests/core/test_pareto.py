"""Unit tests for Pareto dominance, fronts and the predicted frontier."""

import pytest

from repro.core.heterogeneity import LinearTimeModel
from repro.core.optimizer import ParetoOptimizer, predict_dirty_energy, predict_makespan
from repro.core.pareto import (
    hypervolume_2d,
    is_pareto_efficient,
    pareto_dominates,
    pareto_front,
)


class TestDominance:
    def test_strict_dominance(self):
        assert pareto_dominates([1, 1], [2, 2])

    def test_weak_dominance_one_axis(self):
        assert pareto_dominates([1, 2], [2, 2])

    def test_equal_points_do_not_dominate(self):
        assert not pareto_dominates([1, 1], [1, 1])

    def test_tradeoff_points_incomparable(self):
        assert not pareto_dominates([1, 3], [3, 1])
        assert not pareto_dominates([3, 1], [1, 3])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pareto_dominates([1], [1, 2])


class TestFront:
    def test_extracts_non_dominated(self):
        points = [[1, 5], [2, 3], [4, 1], [3, 3], [5, 5]]
        assert pareto_front(points) == [0, 1, 2]

    def test_single_point(self):
        assert pareto_front([[1, 1]]) == [0]

    def test_duplicates_all_kept(self):
        # Equal points don't dominate each other.
        assert pareto_front([[1, 1], [1, 1]]) == [0, 1]

    def test_is_pareto_efficient(self):
        others = [[1, 5], [5, 1]]
        assert is_pareto_efficient([2, 2], others)
        assert not is_pareto_efficient([2, 6], others)


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d([[1, 1]], reference=[3, 3]) == pytest.approx(4.0)

    def test_two_point_staircase(self):
        hv = hypervolume_2d([[1, 2], [2, 1]], reference=[3, 3])
        assert hv == pytest.approx(2.0 + 1.0)

    def test_points_outside_reference_ignored(self):
        assert hypervolume_2d([[5, 5]], reference=[3, 3]) == 0.0

    def test_dominated_points_do_not_add(self):
        base = hypervolume_2d([[1, 1]], reference=[4, 4])
        extra = hypervolume_2d([[1, 1], [2, 2]], reference=[4, 4])
        assert base == pytest.approx(extra)


class TestFrontierSweep:
    @pytest.fixture()
    def optimizer(self):
        return ParetoOptimizer(
            models=[
                LinearTimeModel(slope=1.0 / s, intercept=0.1) for s in (4.0, 2.0, 1.0)
            ],
            dirty_coeffs=[300.0, 100.0, 0.0],
        )

    @staticmethod
    def objectives(plan):
        return (plan.predicted_makespan_s, plan.predicted_dirty_energy_j)

    def test_one_point_per_alpha(self, optimizer):
        front = [p.sizes.tolist() for p in optimizer.front(500)]
        for alpha in (1.0, 0.5, 0.0):
            assert front.count(optimizer.solve(500, alpha).sizes.tolist()) == 1

    def test_endpoints_are_extremes(self, optimizer):
        points = [self.objectives(p) for p in optimizer.front(500)]
        assert points[0][0] == min(t for t, _ in points)
        assert points[-1][1] == min(e for _, e in points)
        assert points[0] == self.objectives(optimizer.solve(500, 1.0))
        assert points[-1] == self.objectives(optimizer.solve(500, 0.0))

    def test_sweep_points_mutually_non_dominating(self, optimizer):
        objs = [self.objectives(p) for p in optimizer.front(500)]
        assert len(objs) == 3
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not pareto_dominates(a, b)

    def test_equal_split_baseline_above_frontier(self, optimizer):
        """The paper's Figure 5 observation: the stratified (equal-split)
        baseline never dominates the frontier, and the frontier beats it
        in each objective somewhere along its length."""
        base_obj = self.objectives(optimizer.equal_split_plan(500))
        points = [self.objectives(p) for p in optimizer.front(500)]
        assert min(t for t, _ in points) <= base_obj[0] + 1e-9
        assert min(e for _, e in points) <= base_obj[1] + 1e-9
        for point in points:
            assert not pareto_dominates(base_obj, point)

    def test_point_objectives_match_plan(self, optimizer):
        for plan in optimizer.front(500):
            assert plan.sizes.sum() == 500
            assert plan.predicted_makespan_s == predict_makespan(optimizer.models, plan.sizes)
            assert plan.predicted_dirty_energy_j == predict_dirty_energy(
                optimizer.models, optimizer.dirty_coeffs, plan.sizes
            )

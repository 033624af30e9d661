"""Unit tests for the carbon-budget planner."""

import pytest

from repro.core.budget import BudgetInfeasibleError, CarbonBudgetPlanner
from repro.core.heterogeneity import LinearTimeModel
from repro.core.optimizer import ParetoOptimizer


@pytest.fixture()
def optimizer():
    return ParetoOptimizer(
        models=[
            LinearTimeModel(slope=1.0 / s, intercept=0.2) for s in (4.0, 3.0, 2.0, 1.0)
        ],
        dirty_coeffs=[300.0, 200.0, 50.0, 0.0],
    )


@pytest.fixture()
def planner(optimizer):
    return CarbonBudgetPlanner(optimizer)


class TestPlanning:
    def test_loose_budget_returns_fastest(self, planner, optimizer):
        fastest = optimizer.solve(1000, 1.0)
        plan = planner.plan(1000, max_dirty_energy_j=1e12)
        assert plan.predicted_makespan_s == pytest.approx(
            fastest.predicted_makespan_s
        )

    def test_plan_respects_budget(self, planner, optimizer):
        fastest = optimizer.solve(1000, 1.0)
        budget = 0.5 * fastest.predicted_dirty_energy_j
        plan = planner.plan(1000, max_dirty_energy_j=budget)
        assert plan.sizes.sum() == 1000
        assert plan.predicted_dirty_energy_j <= budget

    def test_budget_between_vertices_beats_the_greener_vertex(self, planner, optimizer):
        """A budget strictly inside a front segment is met *on* the
        segment, not by retreating to the vertex below it."""
        front = optimizer.front(1000)
        for dirtier, greener in zip(front, front[1:]):
            budget = 0.5 * (
                dirtier.predicted_dirty_energy_j + greener.predicted_dirty_energy_j
            )
            plan = planner.plan(1000, budget)
            assert plan.predicted_dirty_energy_j <= budget
            assert (
                dirtier.predicted_makespan_s
                < plan.predicted_makespan_s
                < greener.predicted_makespan_s
            )

    def test_budget_at_a_vertex_returns_it(self, planner, optimizer):
        for vertex in optimizer.front(1000)[:-1]:
            plan = planner.plan(1000, vertex.predicted_dirty_energy_j)
            assert plan.sizes.tolist() == vertex.sizes.tolist()

    def test_plans_from_the_front_not_from_solves(self, planner, optimizer, monkeypatch):
        monkeypatch.setattr(
            ParetoOptimizer, "solve", lambda *a, **k: pytest.fail("bisecting α again")
        )
        planner.plan(1000, 20_000.0)

    def test_tighter_budget_never_faster(self, planner, optimizer):
        fastest = optimizer.solve(1000, 1.0)
        loose = planner.plan(1000, 0.8 * fastest.predicted_dirty_energy_j)
        tight = planner.plan(1000, 0.2 * fastest.predicted_dirty_energy_j)
        assert tight.predicted_dirty_energy_j <= loose.predicted_dirty_energy_j
        assert tight.predicted_makespan_s >= loose.predicted_makespan_s - 1e-9

    def test_infeasible_budget_raises(self, optimizer):
        # Make every node dirty so the floor is positive.
        dirty_opt = ParetoOptimizer(
            models=list(optimizer.models), dirty_coeffs=[300.0, 200.0, 100.0, 50.0]
        )
        planner = CarbonBudgetPlanner(dirty_opt)
        greenest = dirty_opt.solve(1000, 0.0)
        with pytest.raises(BudgetInfeasibleError):
            planner.plan(1000, 0.5 * greenest.predicted_dirty_energy_j)

    def test_budget_at_floor_is_feasible(self, planner, optimizer):
        greenest = optimizer.solve(1000, 0.0)
        budget = max(greenest.predicted_dirty_energy_j, 1e-6) * 1.01 + 1.0
        plan = planner.plan(1000, budget)
        assert plan.predicted_dirty_energy_j <= budget

    def test_invalid_budget(self, planner):
        with pytest.raises(ValueError):
            planner.plan(1000, 0.0)
        with pytest.raises(ValueError):
            planner.plan(1000, -5.0)

    def test_min_items_forwarded(self, planner, optimizer):
        fastest = optimizer.solve(1000, 1.0)
        plan = planner.plan(
            1000, 0.6 * fastest.predicted_dirty_energy_j, min_items=100
        )
        for s in plan.sizes:
            assert s == 0 or s >= 99

    def test_min_items_holds_on_interpolated_plans(self, planner, optimizer):
        """Near the greener end of a segment the draining node would
        pass through a sliver; the planner steps to the vertex instead."""
        front = optimizer.front(1000, min_items=100)
        for dirtier, greener in zip(front, front[1:]):
            span = dirtier.predicted_dirty_energy_j - greener.predicted_dirty_energy_j
            for frac in (0.02, 0.3, 0.7, 0.98):
                budget = greener.predicted_dirty_energy_j + frac * span
                plan = planner.plan(1000, budget, min_items=100)
                assert plan.sizes.sum() == 1000
                assert plan.predicted_dirty_energy_j <= budget
                assert plan.predicted_makespan_s <= greener.predicted_makespan_s
                assert all(s == 0 or s >= 99 for s in plan.sizes)


class TestHeadroom:
    def test_headroom_fraction(self, planner, optimizer):
        plan = optimizer.solve(1000, 1.0)
        budget = 2.0 * plan.predicted_dirty_energy_j
        assert planner.headroom(plan, budget) == pytest.approx(0.5)

    def test_over_budget_negative(self, planner, optimizer):
        plan = optimizer.solve(1000, 1.0)
        assert planner.headroom(plan, 0.5 * plan.predicted_dirty_energy_j) < 0

    def test_invalid(self, planner, optimizer):
        plan = optimizer.solve(1000, 1.0)
        with pytest.raises(ValueError):
            planner.headroom(plan, 0.0)

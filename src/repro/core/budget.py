"""Carbon-budget planning: a point on the optimizer's front.

The paper anticipates providers exposing a *carbon budget* per job
(Section III-B: "in future we expect such information will be provided
by the data center service provider in terms of carbon ratio guarantee
or carbon budget"). This module turns that interface around: given a
dirty-energy budget in joules, find the **fastest** plan that respects
it.

The front (:meth:`~repro.core.optimizer.ParetoOptimizer.front`) is
piecewise linear, so the answer lies on the one segment whose ends
straddle the budget: the planner interpolates between those two vertex
plans to where the budget binds. No α is searched for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.optimizer import ParetoOptimizer, PartitionPlan


class BudgetInfeasibleError(ValueError):
    """Raised when even the greenest plan exceeds the dirty budget."""


@dataclass
class CarbonBudgetPlanner:
    """Finds the fastest partition plan within a dirty-energy budget.

    Parameters
    ----------
    optimizer:
        A configured :class:`ParetoOptimizer` (models + k coefficients).
    """

    optimizer: ParetoOptimizer

    def plan(
        self,
        total_items: int,
        max_dirty_energy_j: float,
        min_items: int = 0,
    ) -> PartitionPlan:
        """The fastest plan with predicted dirty energy ≤ the budget.

        Raises
        ------
        BudgetInfeasibleError
            If the greenest plan on the front already exceeds the budget.
        ValueError
            For non-positive budgets or item counts.
        """
        if max_dirty_energy_j <= 0:
            raise ValueError("budget must be positive")
        front = self.optimizer.front(total_items, min_items)
        energies = [plan.predicted_dirty_energy_j for plan in front]
        within = [i for i, energy in enumerate(energies) if energy <= max_dirty_energy_j]
        if not within:
            raise BudgetInfeasibleError(
                f"greenest plan needs {energies[-1]:.1f} J, "
                f"budget is {max_dirty_energy_j:.1f} J"
            )
        candidates = [front[i] for i in within]
        first = within[0]
        if first > 0:
            candidates.append(
                self._between(front[first - 1], front[first], max_dirty_energy_j, min_items)
            )
        # Integer rounding can reorder neighbouring plans' makespans.
        return min(candidates, key=lambda plan: plan.predicted_makespan_s)

    def _between(
        self,
        dirtier: PartitionPlan,
        greener: PartitionPlan,
        max_dirty_energy_j: float,
        min_items: int,
    ) -> PartitionPlan:
        """The point of the segment ``dirtier → greener`` where the budget
        binds, or ``greener`` when that point is not a usable plan."""
        models = self.optimizer.models
        k = np.asarray(self.optimizer.dirty_coeffs, dtype=np.float64)
        per_item = k * np.array([mod.slope for mod in models])
        idle_cost = k * np.array([mod.intercept for mod in models])
        # Strictly inside the segment every node either end uses is
        # running, so energy is linear in the mixing weight t.
        used = (dirtier.sizes > 0) | (greener.sizes > 0)
        at_dirtier = per_item @ dirtier.sizes + idle_cost[used].sum()
        at_greener = per_item @ greener.sizes + idle_cost[used].sum()
        # Rounding moves each used node by under one item; aim that far
        # below the budget so the integer plan stays within it.
        target = max_dirty_energy_j - per_item[used].sum()
        if not at_greener <= target < at_dirtier:
            return greener
        t = (at_dirtier - target) / (at_dirtier - at_greener)
        plan = self.optimizer.plan_from(
            dirtier.sizes + t * (greener.sizes - dirtier.sizes), greener.total_items
        )
        usable = (
            plan.predicted_dirty_energy_j <= max_dirty_energy_j
            # A node the segment drains must not pass through a sliver.
            and ((plan.sizes == 0) | (plan.sizes >= min_items - 1)).all()
        )
        return plan if usable else greener

    def headroom(self, plan: PartitionPlan, max_dirty_energy_j: float) -> float:
        """Unused budget fraction in [0, 1] (negative = over budget)."""
        if max_dirty_energy_j <= 0:
            raise ValueError("budget must be positive")
        return 1.0 - plan.predicted_dirty_energy_j / max_dirty_energy_j

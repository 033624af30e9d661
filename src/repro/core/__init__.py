"""The paper's primary contribution: Pareto-optimal heterogeneity-aware
data partitioning.

Pipeline (Figure 1 of the paper):

1. :mod:`repro.core.heterogeneity` — task-specific heterogeneity
   estimator: progressive sampling fits per-node time models
   ``f_i(x) = m_i·x + c_i``;
2. the green-energy estimator lives in :mod:`repro.energy` (each node's
   ``k_i = E_i − ḠE_i``);
3. the data stratifier lives in :mod:`repro.stratify`;
4. :mod:`repro.core.optimizer` — the exact time–energy front of the
   multi-objective LP ``min (v, Σ k_i f_i(x_i))``; the paper's weight
   ``α`` picks one of its vertices;
5. :mod:`repro.core.partitioner` — representative and similar-together
   placement of the optimizer's partition sizes.

:mod:`repro.core.framework` wires the five stages into the public
:class:`~repro.core.framework.ParetoPartitioner` API;
:mod:`repro.core.budget` reads a dirty-energy budget off the same
front; :mod:`repro.core.pareto` judges measured points for dominance;
:mod:`repro.core.strategies` names the paper's evaluated schemes.
"""

from repro.core.heterogeneity import (
    LinearTimeModel,
    PolynomialTimeModel,
    ProgressiveSampler,
    ProfilingReport,
)
from repro.core.optimizer import PartitionPlan, ParetoOptimizer
from repro.core.budget import CarbonBudgetPlanner, BudgetInfeasibleError
from repro.core.pareto import pareto_dominates, pareto_front
from repro.core.partitioner import (
    representative_partitions,
    similar_partitions,
    random_partitions,
    round_robin_partitions,
    equal_sizes,
)
from repro.core.strategies import Strategy, STRATIFIED, HET_AWARE, het_energy_aware, RANDOM
from repro.core.framework import ParetoPartitioner, RunReport

__all__ = [
    "LinearTimeModel",
    "PolynomialTimeModel",
    "ProgressiveSampler",
    "ProfilingReport",
    "PartitionPlan",
    "ParetoOptimizer",
    "CarbonBudgetPlanner",
    "BudgetInfeasibleError",
    "pareto_dominates",
    "pareto_front",
    "representative_partitions",
    "similar_partitions",
    "random_partitions",
    "round_robin_partitions",
    "equal_sizes",
    "Strategy",
    "STRATIFIED",
    "HET_AWARE",
    "het_energy_aware",
    "RANDOM",
    "ParetoPartitioner",
    "RunReport",
]

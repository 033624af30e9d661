"""Frequent pattern mining workloads (compute-intensive, skew-sensitive).

Implements the paper's FPM stack: Apriori (Agrawal & Srikant) as the
local miner, the two workloads of Savasere et al.'s partition-based
distributed algorithm (local mining, then the global false-positive
pruning scan — run as two phases by
:func:`repro.core.framework.run_two_phase`), the frequent tree mining
variant over LCA-pivot sets, and Eclat and FP-growth as further
local miners (extension).
"""

from repro.workloads.fpm.apriori import AprioriMiner, AprioriWorkload, CandidateCountWorkload
from repro.workloads.fpm.treemining import TreeMiningWorkload, trees_to_pivot_sets
from repro.workloads.fpm.eclat import EclatMiner, EclatWorkload
from repro.workloads.fpm.fpgrowth import FPGrowthMiner, FPGrowthWorkload

__all__ = [
    "FPGrowthMiner",
    "FPGrowthWorkload",
    "AprioriMiner",
    "AprioriWorkload",
    "CandidateCountWorkload",
    "TreeMiningWorkload",
    "trees_to_pivot_sets",
    "EclatMiner",
    "EclatWorkload",
]

"""The planning path runs without scipy installed.

``linprog`` used to sit under every ``plan`` call; it is now only the
oracle the optimizer tests compare against, and scipy is a test-only
dependency. A fresh interpreter with ``sys.modules["scipy"]`` poisoned
(a ``None`` entry makes any ``import scipy`` raise) must import
``repro.core`` and plan both ways.
"""

import subprocess
import sys

SCRIPT = """
import sys
sys.modules["scipy"] = None
sys.modules["scipy.optimize"] = None

from repro.cluster import SimulatedEngine, paper_cluster
from repro.core import HET_AWARE, ParetoPartitioner, het_energy_aware
from repro.data import load_dataset
from repro.workloads.fpm import AprioriWorkload

dataset = load_dataset("rcv1", size_scale=0.2, seed=0)
pp = ParetoPartitioner(
    SimulatedEngine(paper_cluster(4, seed=0)), kind=dataset.kind, num_strata=6,
    stage_via_kv=False,
)
prepared = pp.prepare(dataset.items, AprioriWorkload(min_support=0.15, max_len=2))
fastest = pp.plan(prepared, HET_AWARE)
greener = pp.plan(prepared, het_energy_aware())
assert fastest.total_items == greener.total_items == prepared.num_items
budget = 0.5 * fastest.predicted_dirty_energy_j
plan = pp.plan_for_budget(prepared, budget)
assert plan.total_items == prepared.num_items
assert plan.predicted_dirty_energy_j <= budget
assert not any(name.split(".")[0] == "scipy" and mod for name, mod in sys.modules.items())
print("planned without scipy")
"""


def test_plan_and_plan_for_budget_run_with_scipy_absent():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "planned without scipy"

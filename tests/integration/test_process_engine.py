"""End-to-end test of the real process-pool execution engine."""

import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ProcessPoolEngine
from repro.core.framework import ParetoPartitioner
from repro.core.strategies import HET_AWARE, STRATIFIED
from repro.data.datasets import load_dataset
from repro.workloads.fpm.apriori import AprioriMiner, AprioriWorkload


@pytest.fixture(scope="module")
def setup():
    dataset = load_dataset("rcv1", size_scale=0.3, seed=0)
    cluster = paper_cluster(4, seed=0)
    engine = ProcessPoolEngine(cluster, max_workers=2)
    pp = ParetoPartitioner(
        engine, kind=dataset.kind, num_strata=4, stage_via_kv=False, seed=0
    )
    return dataset, pp


class TestProcessPoolEndToEnd:
    def test_full_pipeline_runs(self, setup):
        dataset, pp = setup
        workload = AprioriWorkload(min_support=0.2, max_len=2)
        report = pp.execute_fpm(dataset.items, workload, STRATIFIED)
        assert report.makespan_s > 0
        assert report.total_energy_j > 0

    def test_result_matches_central_mining(self, setup):
        dataset, pp = setup
        workload = AprioriWorkload(min_support=0.2, max_len=2)
        central = AprioriMiner(min_support=0.2, max_len=2).mine(dataset.items).counts
        report = pp.execute_fpm(dataset.items, workload, HET_AWARE)
        assert report.merged_output == central

    def test_het_plan_favours_fast_nodes(self, setup):
        dataset, pp = setup
        workload = AprioriWorkload(min_support=0.1, max_len=3)
        prepared = pp.prepare(dataset.items, workload)
        plan = pp.plan(prepared, HET_AWARE)
        # Wall-clock noise aside, node 0 (4x) must get more than node 3 (1x).
        assert plan.sizes[0] > plan.sizes[3]

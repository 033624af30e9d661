"""The one way to say "two-phase": ``Workload.two_phase``.

``ParetoPartitioner.execute`` dispatches on the attribute, so every
caller that used to carry its own list of mining workloads (the
frontier sweep, the bench harness, ``repro compare``, the service)
now just calls ``execute``.
"""

import ast
import pathlib
import re

import pytest

import repro.core.framework as framework
from repro.bench.harness import StrategyRunner
from repro.cli import main
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.core.framework import ParetoPartitioner
from repro.core.strategies import HET_AWARE, STRATIFIED
from repro.data.datasets import load_dataset
from repro.service.executor import build_executor
from repro.service.jobs import (
    MINING_WORKLOADS,
    SERVICE_WORKLOADS,
    JobSpec,
    build_workload,
)

#: A dataset each service workload can run on.
DATASET_FOR = {
    "apriori": "rcv1",
    "eclat": "rcv1",
    "fpgrowth": "rcv1",
    "treemining": "swissprot",
    "webgraph": "uk",
    "lz77": "uk",
}
SUPPORT = 0.2
TWO_PHASE_EXTRA = {
    "candidates",
    "frequent",
    "false_positives",
    "local_makespan_s",
    "count_makespan_s",
}


@pytest.fixture(scope="module")
def datasets():
    return {
        name: load_dataset(name, size_scale=0.1, seed=0)
        for name in set(DATASET_FOR.values())
    }


def partitioner(dataset) -> ParetoPartitioner:
    engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=5e4)
    return ParetoPartitioner(engine, kind=dataset.kind, num_strata=6, seed=0)


@pytest.mark.parametrize("name", SERVICE_WORKLOADS)
def test_attribute_matches_the_name_tuple(name):
    assert build_workload(name, SUPPORT).two_phase == (name in MINING_WORKLOADS)


class TestExecuteDispatchesItself:
    @pytest.mark.parametrize("name", MINING_WORKLOADS)
    def test_execute_equals_execute_fpm(self, name, datasets):
        dataset = datasets[DATASET_FOR[name]]
        pp = partitioner(dataset)
        workload = build_workload(name, SUPPORT)
        prepared = pp.prepare(dataset.items, workload)
        auto = pp.execute(dataset.items, workload, HET_AWARE, prepared=prepared)
        explicit = pp.execute_fpm(dataset.items, workload, HET_AWARE, prepared=prepared)
        assert auto.plan.sizes.tolist() == explicit.plan.sizes.tolist()
        assert auto.makespan_s == explicit.makespan_s
        assert auto.total_energy_j == explicit.total_energy_j
        assert auto.total_dirty_energy_j == explicit.total_dirty_energy_j
        assert auto.extra == explicit.extra
        assert set(auto.extra) == TWO_PHASE_EXTRA
        assert auto.merged_output == explicit.merged_output
        assert len(auto.job.tasks) == 2 * auto.plan.num_partitions

    @pytest.mark.parametrize("name", ["webgraph", "lz77"])
    def test_single_phase_stays_single(self, name, datasets):
        dataset = datasets[DATASET_FOR[name]]
        pp = partitioner(dataset)
        report = pp.execute(dataset.items, build_workload(name, SUPPORT), STRATIFIED)
        assert report.extra == {}
        assert len(report.job.tasks) == report.plan.num_partitions


@pytest.mark.parametrize("name", SERVICE_WORKLOADS)
class TestCallersTakeTheRightPath:
    def test_measure_frontier(self, name, datasets):
        dataset = datasets[DATASET_FOR[name]]
        pp = partitioner(dataset)
        ((_, report),) = pp.measure_frontier(
            dataset.items, build_workload(name, SUPPORT), [1.0]
        )
        assert ("candidates" in report.extra) == (name in MINING_WORKLOADS)

    def test_strategy_runner(self, name, datasets):
        runner = StrategyRunner(
            dataset=datasets[DATASET_FOR[name]],
            workload_factory=lambda: build_workload(name, SUPPORT),
        )
        report = runner.run(STRATIFIED, 4)
        assert ("candidates" in report.extra) == (name in MINING_WORKLOADS)

    def test_repro_compare(self, name, capsys):
        argv = ["compare", "--dataset", DATASET_FOR[name], "--workload", name]
        assert main(argv + ["--scale", "0.1", "--support", "0.2", "--partitions", "4"]) == 0
        out = capsys.readouterr().out
        assert ("false_positives" in out) == (name in MINING_WORKLOADS)
        assert ("compression_ratio" in out) == (name not in MINING_WORKLOADS)

    def test_service_job(self, name):
        executor = build_executor("simulated")
        spec = JobSpec(workload=name, dataset=DATASET_FOR[name], support=SUPPORT)
        spec.validate()
        payload = executor.run(spec)
        assert ("candidates" in payload["quality"]) == (name in MINING_WORKLOADS)


def test_framework_imports_no_mining_class():
    tree = ast.parse(pathlib.Path(framework.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not [n for n in imported if re.search("Apriori|Eclat|FPGrowth|TreeMining", n)]
    assert "CandidateCountWorkload" in imported

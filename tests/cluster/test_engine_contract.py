"""Every engine honours the one ``ExecutionEngine`` contract.

The work-stealing runner used to be a stand-alone class with its own
``run_job`` loop; it had drifted from the real engines (no profiling,
no ``start_offset_s``, weaker validation). It is now a
:class:`SimulatedEngine` subclass that overrides only the schedule
step — these tests pin what that buys.
"""

from typing import Sequence

import numpy as np
import pytest

import repro.obs as obs
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ExecutionEngine, ProcessPoolEngine, SimulatedEngine
from repro.cluster.workstealing import WorkStealingScheduler
from repro.core.framework import ParetoPartitioner
from repro.core.strategies import HET_AWARE
from repro.data.datasets import load_dataset
from repro.energy.traces import EnergyTrace
from repro.obs.energy import energy_split
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.fpm.apriori import AprioriMiner, AprioriWorkload

ENGINES = {
    "simulated": lambda c: SimulatedEngine(c, unit_rate=10.0),
    "stealing": lambda c: WorkStealingScheduler(c, unit_rate=10.0, chunk_size=8),
}
PARTS = [[1] * 40, [2] * 40, [3] * 40, [4] * 40]


class SumWorkload(Workload):
    name = "sum"

    def run(self, records: Sequence[int]) -> WorkloadResult:
        return WorkloadResult(work_units=float(len(records)), output=sum(records))

    def merge(self, partials):
        return sum(p.output for p in partials)


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster(4, seed=0)


@pytest.fixture(params=sorted(ENGINES))
def engine(request, cluster):
    return ENGINES[request.param](cluster)


class TestIsAnEngine:
    def test_isinstance_and_profiling(self, engine, cluster):
        assert isinstance(engine, ExecutionEngine)
        records = list(range(30))
        expected = [n.runtime_for_work(30.0, 10.0) for n in cluster]
        assert engine.profile_all_nodes(SumWorkload(), records) == expected
        assert [
            engine.profile(SumWorkload(), records, n) for n in range(4)
        ] == expected

    def test_run_job_is_defined_once(self, engine):
        assert type(engine).run_job is ExecutionEngine.run_job


class TestOneProbePath:
    """A probe and a job price a node with the same ``_runtime``: what
    the planner learns per node is what the engine then bills."""

    def test_probe_equals_the_job_it_predicts(self, cluster):
        engine = SimulatedEngine(cluster, unit_rate=10.0)
        records = list(range(30))
        probe = engine.profile_all_nodes(SumWorkload(), records)
        for node in range(cluster.num_nodes):
            (task,) = engine.run_job(SumWorkload(), [records], [node]).tasks
            assert probe[node] == task.runtime_s

    def test_pool_probe_prices_one_measurement_on_every_node(self, cluster):
        with ProcessPoolEngine(cluster, max_workers=1) as engine:
            probe = engine.profile_all_nodes(SumWorkload(), list(range(50)))
        raw = [t * n.speed_factor - n.task_overhead_s for t, n in zip(probe, cluster)]
        assert raw[0] > 0
        # Absolute: inverting an overhead of 0.5 s leaves ~1e-16 s of
        # round-off on a raw wall time of microseconds.
        assert raw == pytest.approx([raw[0]] * cluster.num_nodes, rel=0.0, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize(
        "partitions,kwargs,message",
        [
            ([], {}, "job needs at least one partition"),
            ([[1], [2]], {"assignment": [0]}, "one node assignment required per partition"),
            ([[1]], {"assignment": [99]}, "assignment references unknown node 99"),
            ([[1]], {"start_offset_s": -1.0}, "start_offset_s must be non-negative"),
        ],
    )
    def test_same_errors_everywhere(self, engine, partitions, kwargs, message):
        with pytest.raises(ValueError, match=message):
            engine.run_job(SumWorkload(), partitions, **kwargs)


class TestStartOffset:
    def test_offset_rebills_energy_but_keeps_the_timeline(self, engine, cluster):
        offset = 3 * 3600.0
        base = engine.run_job(SumWorkload(), PARTS)
        late = engine.run_job(SumWorkload(), PARTS, start_offset_s=offset)
        assert [(t.node_id, t.start_s, t.runtime_s, t.energy_j) for t in late.tasks] == [
            (t.node_id, t.start_s, t.runtime_s, t.energy_j) for t in base.tasks
        ]
        assert late.makespan_s == base.makespan_s
        assert late.merged_output == base.merged_output
        for t in late.tasks:
            assert (t.energy_j, t.dirty_energy_j) == cluster[t.node_id].bill(
                t.runtime_s, start_s=offset + t.start_s
            )
        # Three hours on, the sites' green supply differs: the books move.
        assert late.total_dirty_energy_j != base.total_dirty_energy_j


class TestTraceSwap:
    def test_assigned_trace_is_what_the_job_bills(self):
        """A node bills against the trace it holds now: swap in a dark
        trace on node 0 and a flooded one on node 1, and node 0's tasks
        are all dirty and node 1's all green."""
        cluster = paper_cluster(4, seed=0)
        steps = cluster[0].trace.watts.size
        cluster[0].trace = EnergyTrace(watts=np.zeros(steps), resolution_s=60.0)
        cluster[1].trace = EnergyTrace(watts=np.full(steps, 1e4), resolution_s=60.0)
        job = SimulatedEngine(cluster, unit_rate=10.0).run_job(SumWorkload(), PARTS)
        by_node = {t.node_id: t for t in job.tasks}
        assert by_node[0].dirty_energy_j == pytest.approx(by_node[0].energy_j)
        assert by_node[0].energy_j > 0
        assert by_node[1].dirty_energy_j == 0.0
        assert cluster.dirty_power_coefficients()[:2].tolist() == [440.0, 0.0]


class TestUnderTheFramework:
    """Stealing now runs under ``ParetoPartitioner.execute``
    — profiling, both mining phases, offset billing and telemetry."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return load_dataset("rcv1", size_scale=0.1, seed=0)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_two_phase_job_reconciles(self, name, dataset):
        make = {
            "simulated": lambda c: SimulatedEngine(c, unit_rate=5e4),
            "stealing": lambda c: WorkStealingScheduler(c, unit_rate=5e4, chunk_size=25),
        }[name]
        pp = ParetoPartitioner(
            make(paper_cluster(4, seed=0)), kind=dataset.kind, num_strata=6, seed=0
        )
        workload = AprioriWorkload(min_support=0.15, max_len=2)
        obs.disable()
        obs.reset()
        obs.enable()
        try:
            report = pp.execute(dataset.items, workload, HET_AWARE)
            split = energy_split(obs.get_tracer().finished_spans())
        finally:
            obs.disable()
            obs.reset()
        assert int(report.plan.sizes.sum()) == len(dataset)
        assert split["energy_j"] == pytest.approx(report.total_energy_j, abs=1e-6)
        assert split["dirty_energy_j"] == pytest.approx(
            report.total_dirty_energy_j, abs=1e-6
        )
        # Phase 2 prunes exactly, however phase 1 was scheduled.
        central = AprioriMiner(min_support=0.15, max_len=2).mine(dataset.items).counts
        assert report.merged_output == central

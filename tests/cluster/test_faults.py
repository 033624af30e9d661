"""Tests for fault injection and recovery re-execution."""

from typing import Sequence

import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.cluster.faults import FaultInjectingEngine
from repro.workloads.base import Workload, WorkloadResult


class SumWorkload(Workload):
    name = "sum"

    def run(self, records: Sequence[int]) -> WorkloadResult:
        return WorkloadResult(work_units=float(len(records)), output=sum(records))

    def merge(self, partials):
        return sum(p.output for p in partials)


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster(4, seed=0)


PARTS = [[1] * 40, [2] * 40, [3] * 40, [4] * 40]


class TestNoFaults:
    def test_matches_simulated_engine(self, cluster):
        faulty = FaultInjectingEngine(cluster, fail_at={}, unit_rate=10.0)
        plain = SimulatedEngine(cluster, unit_rate=10.0)
        a = faulty.run_job(SumWorkload(), PARTS)
        b = plain.run_job(SumWorkload(), PARTS)
        assert a.makespan_s == pytest.approx(b.makespan_s)
        assert a.merged_output == b.merged_output


class TestRecovery:
    def test_answer_survives_failure(self, cluster):
        engine = FaultInjectingEngine(cluster, fail_at={3: 1.0}, unit_rate=10.0)
        job = engine.run_job(SumWorkload(), PARTS)
        assert job.merged_output == sum(sum(p) for p in PARTS)

    def test_failure_extends_makespan_on_critical_path(self, cluster):
        # All partitions on the fastest node; its failure forces the
        # whole job onto slower survivors, so the makespan must grow.
        assignment = [0, 0, 0, 0]
        healthy = FaultInjectingEngine(cluster, fail_at={}, unit_rate=10.0)
        faulty = FaultInjectingEngine(cluster, fail_at={0: 1.0}, unit_rate=10.0)
        h = healthy.run_job(SumWorkload(), PARTS, assignment=assignment)
        f = faulty.run_job(SumWorkload(), PARTS, assignment=assignment)
        assert f.makespan_s > h.makespan_s
        assert f.merged_output == h.merged_output

    def test_losing_slowest_node_can_even_help(self, cluster):
        """Counter-intuitive but correct: when the 1x node dies early,
        its partition re-runs on the 4x node and the makespan drops —
        the load imbalance the Het-Aware planner removes up front."""
        healthy = FaultInjectingEngine(cluster, fail_at={}, unit_rate=10.0)
        faulty = FaultInjectingEngine(cluster, fail_at={3: 1.0}, unit_rate=10.0)
        h = healthy.run_job(SumWorkload(), PARTS)
        f = faulty.run_job(SumWorkload(), PARTS)
        assert f.makespan_s < h.makespan_s

    def test_wasted_energy_charged(self, cluster):
        engine = FaultInjectingEngine(cluster, fail_at={3: 1.0}, unit_rate=10.0)
        job = engine.run_job(SumWorkload(), PARTS)
        assert job.wasted_energy_j > 0

    def test_failure_before_start_loses_no_energy(self, cluster):
        # Node 3 dies at t=0: its partition never starts there.
        engine = FaultInjectingEngine(cluster, fail_at={3: 0.0}, unit_rate=10.0)
        job = engine.run_job(SumWorkload(), PARTS)
        assert job.wasted_energy_j == 0.0
        assert job.merged_output == sum(sum(p) for p in PARTS)

    def test_recovery_lands_on_survivor(self, cluster):
        engine = FaultInjectingEngine(cluster, fail_at={3: 1.0}, unit_rate=10.0)
        job = engine.run_job(SumWorkload(), PARTS)
        recovered = [
            t for t in job.tasks if t.partition_id == 3 and not t.stats.get("wasted")
        ]
        assert len(recovered) == 1
        assert recovered[0].node_id != 3
        assert recovered[0].start_s >= 1.0 + engine.detection_latency_s

    def test_multiple_failures(self, cluster):
        engine = FaultInjectingEngine(
            cluster, fail_at={2: 0.5, 3: 1.0}, unit_rate=10.0
        )
        job = engine.run_job(SumWorkload(), PARTS)
        assert job.merged_output == sum(sum(p) for p in PARTS)
        used = {t.node_id for t in job.tasks if not t.stats.get("wasted")}
        assert used <= {0, 1}


class TestValidation:
    def test_all_nodes_failing_rejected(self, cluster):
        with pytest.raises(ValueError):
            FaultInjectingEngine(cluster, fail_at={0: 1, 1: 1, 2: 1, 3: 1})

    def test_unknown_node_rejected(self, cluster):
        with pytest.raises(ValueError):
            FaultInjectingEngine(cluster, fail_at={9: 1.0})

    def test_negative_times_rejected(self, cluster):
        with pytest.raises(ValueError):
            FaultInjectingEngine(cluster, fail_at={0: -1.0})
        with pytest.raises(ValueError):
            FaultInjectingEngine(cluster, detection_latency_s=-1.0)


class TestTelemetry:
    """Observability coverage: wasted energy accounting, retry charging,
    and the fault.injected / fault.retried spans + counters."""

    @pytest.fixture(autouse=True)
    def _obs(self):
        import repro.obs as obs

        obs.disable()
        obs.reset()
        obs.enable()
        yield obs
        obs.disable()
        obs.reset()

    def test_wasted_energy_matches_wasted_tasks(self, cluster):
        engine = FaultInjectingEngine(cluster, fail_at={3: 1.0}, unit_rate=10.0)
        job = engine.run_job(SumWorkload(), PARTS)
        wasted_tasks = [t for t in job.tasks if t.stats.get("wasted")]
        assert wasted_tasks
        assert job.wasted_energy_j == pytest.approx(
            sum(t.energy_j for t in wasted_tasks)
        )
        # Wasted runs still burn real joules inside the job totals.
        assert job.total_energy_j >= sum(t.energy_j for t in wasted_tasks)

    def test_retry_is_charged_to_the_recovery_node(self, cluster):
        engine = FaultInjectingEngine(cluster, fail_at={3: 1.0}, unit_rate=10.0)
        job = engine.run_job(SumWorkload(), PARTS)
        retried = [
            t for t in job.tasks if t.partition_id == 3 and not t.stats.get("wasted")
        ]
        assert len(retried) == 1
        assert retried[0].energy_j > 0
        assert retried[0].node_id != 3

    def test_fault_spans_and_counters(self, cluster, _obs):
        obs = _obs
        engine = FaultInjectingEngine(cluster, fail_at={3: 1.0}, unit_rate=10.0)
        job = engine.run_job(SumWorkload(), PARTS)
        spans = obs.get_tracer().finished_spans()
        names = [s["name"] for s in spans]

        injected = [s for s in spans if s["name"] == "fault.injected"]
        retried = [s for s in spans if s["name"] == "fault.retried"]
        assert len(injected) == 1
        assert injected[0]["attrs"]["node_id"] == 3
        assert injected[0]["duration_s"] == 0.0
        assert len(retried) == 1
        assert retried[0]["attrs"]["partition_id"] == 3
        assert retried[0]["attrs"]["node_id"] != 3

        assert "engine.run_job" in names
        assert names.count("task.execute") == len(job.tasks)

        snap = obs.metrics_snapshot()
        assert snap['repro_fault_injected_total{node="3"}']["value"] == 1
        retried_total = sum(
            v["value"]
            for k, v in snap.items()
            if k.startswith("repro_fault_retried_total")
        )
        assert retried_total == 1
        assert snap["repro_fault_wasted_energy_joules_total"][
            "value"
        ] == pytest.approx(job.wasted_energy_j)

    def test_no_fault_spans_without_failures(self, cluster, _obs):
        obs = _obs
        engine = FaultInjectingEngine(cluster, fail_at={}, unit_rate=10.0)
        engine.run_job(SumWorkload(), PARTS)
        names = {s["name"] for s in obs.get_tracer().finished_spans()}
        assert "fault.injected" not in names
        assert "fault.retried" not in names

    def test_disabled_obs_collects_nothing(self, cluster, _obs):
        obs = _obs
        obs.disable()
        engine = FaultInjectingEngine(cluster, fail_at={3: 1.0}, unit_rate=10.0)
        engine.run_job(SumWorkload(), PARTS)
        assert obs.get_tracer().finished_spans() == []
        assert obs.metrics_snapshot() == {}

"""Energy telemetry: breakdowns must regroup job totals exactly."""

import pytest

import repro.obs as obs
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.obs.energy import energy_split, task_energy_attrs
from repro.obs.fold import fold_span
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import TraceAggregate
from tests.obs.test_report import SumWorkload


@pytest.fixture(scope="module")
def job():
    engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=10.0)
    return engine.run_job(SumWorkload(), [[1] * 30, [2] * 30, [3] * 30, [4] * 30])


class TestTaskAttrs:
    def test_fields_and_green_split(self, job):
        task = job.tasks[0]
        attrs = task_energy_attrs(task)
        assert attrs["node_id"] == task.node_id
        assert attrs["energy_j"] == task.energy_j
        assert attrs["green_energy_j"] == pytest.approx(
            task.energy_j - task.dirty_energy_j
        )
        assert 0.0 <= attrs["green_fraction"] <= 1.0


class TestNodeBreakdown:
    def test_sums_match_job_totals(self):
        # The per-node books are the fold of the job's task spans.
        obs.enable()
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=10.0)
        job = engine.run_job(SumWorkload(), [[1] * 30, [2] * 30, [3] * 30, [4] * 30])
        agg = TraceAggregate()
        for span in obs.get_tracer().finished_spans():
            agg.add(span)
        rows = agg.node_rows()
        assert [r["node"] for r in rows] == sorted({t.node_id for t in job.tasks})
        assert sum(r["energy_j"] for r in rows) == pytest.approx(
            job.total_energy_j, abs=1e-6
        )
        assert sum(r["dirty_energy_j"] for r in rows) == pytest.approx(
            job.total_dirty_energy_j, abs=1e-6
        )
        assert sum(r["tasks"] for r in rows) == len(job.tasks)


class TestEnergySplit:
    def test_ignores_spans_without_energy(self):
        spans = [
            {"attrs": {"energy_j": 10.0, "dirty_energy_j": 4.0}},
            {"attrs": {"items": 3}},
        ]
        split = energy_split(spans)
        assert split["task_spans"] == 1
        assert split["energy_j"] == 10.0
        assert split["green_energy_j"] == 6.0
        assert split["green_fraction"] == pytest.approx(0.6)


class TestJobMetrics:
    def test_registry_population(self):
        # The job's series are the fold of its spans.
        obs.enable()
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=10.0)
        job = engine.run_job(SumWorkload(), [[1] * 30, [2] * 30, [3] * 30, [4] * 30])
        reg = MetricsRegistry()
        for span in obs.get_tracer().finished_spans():
            fold_span(reg, span)
        snap = reg.snapshot()
        assert snap['repro_jobs_total{engine="SimulatedEngine"}']["value"] == 1
        per_node_tasks = sum(
            v["value"] for k, v in snap.items() if k.startswith("repro_tasks_total")
        )
        assert per_node_tasks == len(job.tasks)
        total_energy = sum(
            v["value"]
            for k, v in snap.items()
            if k.startswith("repro_energy_joules_total")
        )
        assert total_energy == pytest.approx(job.total_energy_j, abs=1e-6)
        runtime_hist = next(
            v for k, v in snap.items()
            if k.startswith("repro_task_runtime_seconds")
        )
        assert runtime_hist["type"] == "histogram"
        assert runtime_hist["count"] >= 1

"""End-to-end acceptance: a traced pipeline run must cover every stage,
every worker task, and carry an energy breakdown that sums to the job
totals.

These pin the ISSUE's acceptance criteria: five ``stage.*`` span kinds
in one traced ``execute``, per-node energy attributes summing (within
1e-6) to the :class:`RunReport` totals, and worker spans re-parented
under the launching job span.
"""

import pytest

import repro.obs as obs
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ProcessPoolEngine, SimulatedEngine
from repro.core.framework import ParetoPartitioner
from repro.core.strategies import HET_AWARE
from repro.data.datasets import load_dataset
from repro.obs.energy import energy_split
from repro.workloads.fpm.apriori import AprioriWorkload

FIVE_STAGES = {
    "stage.sketch",
    "stage.stratify",
    "stage.profile",
    "stage.optimize",
    "stage.partition",
    "stage.execute",
}


@pytest.fixture(scope="module")
def traced_run():
    """One fully traced prepare+execute on the simulated engine."""
    obs.disable()
    obs.reset()
    obs.enable()
    dataset = load_dataset("rcv1", size_scale=0.1, seed=0)
    engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=5e4)
    pp = ParetoPartitioner(engine, kind=dataset.kind, num_strata=6, seed=0)
    workload = AprioriWorkload(min_support=0.15, max_len=2)
    prepared = pp.prepare(dataset.items, workload)
    report = pp.execute(dataset.items, workload, HET_AWARE, prepared=prepared)
    spans = obs.get_tracer().finished_spans()
    snapshot = obs.metrics_snapshot()
    obs.disable()
    yield report, spans, snapshot
    obs.reset()


class TestStageCoverage:
    def test_all_five_stages_present(self, traced_run):
        _report, spans, _snap = traced_run
        names = {s["name"] for s in spans}
        assert FIVE_STAGES <= names

    def test_pipeline_spans_parent_the_stages(self, traced_run):
        _report, spans, _snap = traced_run
        by_id = {s["span_id"]: s for s in spans}
        execute_stages = [
            s for s in spans
            if s["name"] in ("stage.partition", "stage.execute")
        ]
        assert execute_stages
        for stage in execute_stages:
            parent = by_id[stage["parent_id"]]
            assert parent["name"] == "pipeline.execute"

    def test_partition_stage_says_what_staging_moved(self, traced_run):
        """``duration / items`` of this span is the measured per-item
        staging cost; bytes and round trips say what it bought."""
        report, spans, _snap = traced_run
        (stage,) = [s for s in spans if s["name"] == "stage.partition"]
        attrs = stage["attrs"]
        assert attrs["items"] == sum(report.plan.sizes)
        assert attrs["round_trips"] == report.kv_round_trips > 0
        # Framed bytes: one header word per record plus one per item.
        assert attrs["bytes"] >= 4 * attrs["items"]


class TestEnergyInvariant:
    def test_task_spans_cover_every_task(self, traced_run):
        report, spans, _snap = traced_run
        task_spans = [s for s in spans if s["name"] == "task.execute"]
        assert len(task_spans) == len(report.job.tasks)

    def test_span_energy_sums_to_job_totals(self, traced_run):
        report, spans, _snap = traced_run
        split = energy_split(spans)
        assert split["energy_j"] == pytest.approx(report.total_energy_j, abs=1e-6)
        assert split["dirty_energy_j"] == pytest.approx(
            report.total_dirty_energy_j, abs=1e-6
        )

    def test_per_node_breakdown_sums_to_totals(self, traced_run):
        # The per-node books are the fold's node-labelled series.
        report, _spans, snap = traced_run

        def per_node(series):
            return [v["value"] for k, v in snap.items() if k.startswith(series + "{node=")]

        energy = per_node("repro_energy_joules_total")
        assert len(energy) == len({t.node_id for t in report.job.tasks})
        assert sum(energy) == pytest.approx(report.total_energy_j, abs=1e-6)
        assert sum(per_node("repro_dirty_energy_joules_total")) == pytest.approx(
            report.total_dirty_energy_j, abs=1e-6
        )
        assert sum(per_node("repro_tasks_total")) == len(report.job.tasks)


class TestExportAndMetrics:
    def test_jsonl_and_chrome_exports_validate(self, traced_run, tmp_path):
        _report, spans, _snap = traced_run
        # The per-test reset fixture wipes the global tracer, so replay
        # the captured records through a private one.
        tracer = obs.Tracer()
        tracer.adopt(spans)
        jsonl = tmp_path / "e2e.trace.jsonl"
        chrome = tmp_path / "e2e.trace.chrome.json"
        assert tracer.export_jsonl(jsonl) == len(spans)
        assert tracer.export_chrome(chrome) == len(spans)
        summary = obs.validate_jsonl(jsonl)
        assert FIVE_STAGES <= set(summary["names"])

    def test_job_metrics_present(self, traced_run):
        _report, _spans, snap = traced_run
        assert any(k.startswith("repro_jobs_total") for k in snap)
        assert any(k.startswith("repro_tasks_total") for k in snap)
        assert any(k.startswith("repro_task_runtime_seconds") for k in snap)
        assert any(k.startswith("repro_energy_joules_total") for k in snap)


class TestProcessPoolTracing:
    def test_worker_spans_reparent_under_their_job(self):
        obs.enable()
        parts = [[[j + 1, j + 2, j + 5] for j in range(i * 20, i * 20 + 20)]
                 for i in range(8)]
        from repro.workloads.compression.distributed import CompressionWorkload

        with ProcessPoolEngine(paper_cluster(4, seed=0), max_workers=2) as engine:
            job = engine.run_job(CompressionWorkload(), parts)
            engine.run_job(CompressionWorkload(), parts)
        spans = obs.get_tracer().finished_spans()
        snap = obs.metrics_snapshot()

        run_jobs = [s for s in spans if s["name"] == "engine.run_job"]
        workers = [s for s in spans if s["name"] == "worker.run"]
        assert len(run_jobs) == 2
        assert len(workers) == 2 * len(parts)  # every worker task traced
        job_ids = {s["span_id"] for s in run_jobs}
        assert all(s["parent_id"] in job_ids for s in workers)
        assert {s["pid"] for s in workers} != {run_jobs[0]["pid"]}

        assert len([s for s in spans if s["name"] == "task.execute"]) == len(
            job.tasks
        ) * 2

        assert snap["repro_pool_creations_total"]["value"] == 1

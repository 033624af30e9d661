"""Report rendering + the ``repro obs report`` CLI command."""

from typing import Sequence

import pytest

import repro.obs as obs
from repro.cli import main
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.obs.report import (
    TraceAggregate,
    histogram_quantile,
    render_report,
    report_from_file,
    service_section,
)
from repro.workloads.base import Workload, WorkloadResult


class SumWorkload(Workload):
    name = "sum"

    def run(self, records: Sequence[int]) -> WorkloadResult:
        return WorkloadResult(work_units=float(len(records)), output=sum(records))

    def merge(self, partials):
        return sum(p.output for p in partials)


@pytest.fixture()
def service_spans():
    """The spans of a traced in-process service run (see
    ``run_service``: three accepted jobs, three rejections, a cancel
    and six evictions)."""
    from tests.obs.test_metrics_characterisation import run_service

    obs.enable()
    run_service()
    return obs.get_tracer().finished_spans()


@pytest.fixture()
def trace_path(tmp_path):
    """A real trace: one simulated job run with obs enabled."""
    obs.enable()
    with obs.span("stage.sketch", items=120):
        pass
    engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=10.0)
    engine.run_job(SumWorkload(), [[1] * 30, [2] * 30, [3] * 30, [4] * 30])
    path = tmp_path / "run.trace.jsonl"
    obs.export_jsonl(path)
    return path


def _aggregate(trace_path, top_n: int = 10) -> TraceAggregate:
    _meta, spans = obs.read_spans(trace_path)
    agg = TraceAggregate(top_n)
    for span in spans:
        agg.add(span)
    return agg


class TestTables:
    def test_stage_table(self, trace_path):
        rows = _aggregate(trace_path).stage_rows()
        assert [r["stage"] for r in rows] == ["stage.sketch"]
        assert rows[0]["count"] == 1
        # Spans that say how many items they handled give a per-item cost.
        assert rows[0]["items"] == 120
        assert rows[0]["s_per_item"] == pytest.approx(rows[0]["total_s"] / 120)

    def test_node_table_covers_all_nodes(self, trace_path):
        rows = _aggregate(trace_path).node_rows()
        assert [r["node"] for r in rows] == [0, 1, 2, 3]
        assert all(r["tasks"] == 1 for r in rows)
        assert all(r["energy_j"] > 0 for r in rows)
        assert all(0.0 <= r["green_fraction"] <= 1.0 for r in rows)

    def test_slowest_spans_ordering(self, trace_path):
        top = _aggregate(trace_path, top_n=3).top_spans()
        assert len(top) == 3
        durations = [s["duration_s"] for s in top]
        assert durations == sorted(durations, reverse=True)


class TestRender:
    def test_report_sections(self, trace_path):
        text = report_from_file(trace_path)
        assert "pipeline stages" in text
        assert "per-node tasks & energy" in text
        assert "slowest spans" in text
        assert "energy split:" in text
        assert "stage.sketch" in text

    def test_render_empty_trace(self):
        text = render_report([])
        assert "0 spans" in text


#: A snapshot with no ``repro_service_*`` series.
_SNAPSHOT = {'repro_other_metric_total{x="y"}': {"type": "counter", "value": 9}}


_SERVICE_SNAPSHOT = {
    "repro_service_submitted_total": {"type": "counter", "value": 12},
    'repro_service_accepted_total{tenant="default"}': {"type": "counter", "value": 9},
    'repro_service_rejected_total{reason="queue_full"}': {
        "type": "counter",
        "value": 2,
    },
    'repro_service_rejected_total{reason="tenant_cap"}': {
        "type": "counter",
        "value": 1,
    },
    'repro_service_jobs_total{state="SUCCEEDED"}': {"type": "counter", "value": 8},
    'repro_service_jobs_total{state="FAILED"}': {"type": "counter", "value": 1},
    "repro_service_results_evicted_total": {"type": "counter", "value": 4},
    "repro_service_queue_depth": {"type": "gauge", "value": 0.0},
    "repro_service_queue_depth_peak": {"type": "gauge", "value": 5.0},
    "repro_service_queue_depth_jobs": {
        "type": "histogram",
        "count": 20,
        "sum": 30.0,
        "mean": 1.5,
        "buckets": {"0": 4, "1": 6, "2": 4, "4": 4, "8": 2, "16": 0, "+inf": 0},
    },
    "repro_service_queue_wait_seconds": {
        "type": "histogram",
        "count": 9,
        "sum": 0.9,
        "mean": 0.1,
        "buckets": {"0.005": 1, "0.05": 3, "0.5": 4, "5.0": 1, "+inf": 0},
    },
    "repro_service_run_seconds": {
        "type": "histogram",
        "count": 9,
        "sum": 4.5,
        "mean": 0.5,
        "buckets": {"0.1": 2, "1.0": 6, "10.0": 1, "+inf": 0},
    },
}


class TestServiceSection:
    def test_aggregates_counters_states_and_quantiles(self):
        section = service_section(_SERVICE_SNAPSHOT)
        assert section["submitted"] == 12
        assert section["accepted"] == 9
        assert section["rejections"] == {"queue_full": 2, "tenant_cap": 1}
        assert section["states"] == {"FAILED": 1, "SUCCEEDED": 8}
        assert section["results_evicted"] == 4
        assert section["queue_depth"]["peak"] == 5.0
        assert section["queue_depth"]["p50"] == 1.0
        assert section["queue_wait_s"]["p50"] == 0.5
        assert section["run_s"]["p99"] == 10.0

    def test_no_service_series_returns_none(self):
        assert service_section(_SNAPSHOT) is None
        assert service_section({}) is None

    def test_histogram_quantile_edges(self):
        assert histogram_quantile({"count": 0, "buckets": {}}, 0.5) is None
        entry = {"count": 4, "buckets": {"1": 2, "2": 2, "+inf": 0}}
        assert histogram_quantile(entry, 0.5) == 1.0
        assert histogram_quantile(entry, 0.99) == 2.0
        # Mass in the overflow bucket answers with +inf.
        overflow = {"count": 2, "buckets": {"1": 1, "+inf": 1}}
        assert histogram_quantile(overflow, 0.99) == float("inf")

    def test_render_includes_service_section(self, service_spans):
        text = render_report(service_spans)
        assert "== service ==" in text
        assert (
            "submitted 6  accepted 3  rejected 3 "
            "(draining=1, queue_full=1, tenant_cap=1)"
        ) in text
        assert "terminal states: CANCELLED=1, SUCCEEDED=2" in text
        assert "results evicted (TTL): 6" in text
        assert "queue depth: current 0.0000  peak 2.0000" in text
        assert "(over 5 samples)" in text

    def test_report_from_file_renders_service_spans(self, service_spans, tmp_path):
        # The section comes from the trace's own service.* spans: the
        # file is all the report reads.
        path = tmp_path / "service.trace.jsonl"
        obs.export_jsonl(path)
        obs.reset()
        assert report_from_file(path) == render_report(service_spans, title=f"trace: {path}")

    def test_report_without_service_metrics_omits_section(self, trace_path):
        assert "== service ==" not in report_from_file(trace_path)


class TestCli:
    def test_obs_report_command(self, trace_path, capsys):
        assert main(["obs", "report", str(trace_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-node tasks & energy" in out
        assert "task.execute" in out

    def test_obs_report_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "meta", "schema_version": 999, "span_count": 0}\n')
        with pytest.raises(ValueError, match="schema_version"):
            main(["obs", "report", str(bad)])

"""The registry is a fold of the span stream (``repro.obs.fold``).

One stream: for every traced run of the characterisation set, folding
the exported trace into a fresh registry gives exactly the live
registry's snapshot — counters, gauges and histogram sums included.
"""

import fnmatch
import inspect
import pathlib
import re

import pytest

import repro.obs as obs
import repro.obs.fold
from repro.obs.fold import fold_span
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from tests.obs.test_metrics_characterisation import SCENARIOS

ROOT = pathlib.Path(__file__).resolve().parents[2]
RECORDED = ROOT / "tests" / "integration" / "golden" / "recorded.trace.jsonl"
#: Every series name the fold can update (its quoted literals).
FOLDED = set(re.findall(r'"(repro_[a-z_]+)"', inspect.getsource(repro.obs.fold)))


def fold_all(spans) -> dict:
    registry = MetricsRegistry()
    for span in spans:
        fold_span(registry, span)
    return registry.snapshot()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_folding_the_exported_trace_gives_the_live_registry(name, tmp_path):
    run, _ = SCENARIOS[name]
    obs.enable()
    run()
    path = tmp_path / "run.trace.jsonl"
    obs.export_jsonl(path)
    live = obs.metrics_snapshot()
    assert live
    assert fold_all(obs.read_spans(path)[1]) == live


def test_an_old_trace_folds_without_error():
    # Recorded before task spans carried queue_wait_s: that one series
    # is skipped, every other one folds.
    _meta, spans = obs.read_spans(RECORDED)
    snap = fold_all(spans)
    tasks = [s for s in spans if s["name"] == "task.execute"]
    jobs = [s for s in spans if s["name"] == "engine.run_job"]
    assert sum(
        v["value"] for k, v in snap.items() if k.startswith("repro_tasks_total")
    ) == len(tasks)
    assert snap['repro_jobs_total{engine="SimulatedEngine"}']["value"] == len(jobs)
    assert not any(k.startswith("repro_task_queue_wait_seconds") for k in snap)


class TestFoldSpan:
    def record(self, name, duration_s=0.0, **attrs):
        return {"name": name, "duration_s": duration_s, "attrs": attrs}

    def test_spans_no_series_reads_fold_to_nothing(self):
        assert fold_all([self.record("stage.sketch", 1.0, items=3)]) == {}

    def test_unwritten_books_fold_to_nothing(self):
        # A job or a submission that raised before its books were set.
        assert fold_all([
            self.record("engine.run_job", engine="SimulatedEngine"),
            self.record("service.submit", tenant="t"),
            self.record("service.run", job_id="j"),
        ]) == {}

    def test_rejection_counts_the_submission_not_the_queue(self):
        snap = fold_all([
            self.record("service.submit", state="REJECTED", reason="queue_full"),
            self.record(
                "service.submit", state="QUEUED", tenant="t", depth=1, peak=1, running=0
            ),
        ])
        assert snap["repro_service_submitted_total"]["value"] == 2
        assert snap['repro_service_rejected_total{reason="queue_full"}']["value"] == 1
        assert snap['repro_service_accepted_total{tenant="t"}']["value"] == 1
        assert snap["repro_service_queue_depth_jobs"]["count"] == 1


class TestTracerFold:
    def test_own_spans_marks_and_adopted_spans_fold(self):
        tracer = Tracer()
        with tracer.span("engine.run_job", engine="E", makespan_s=1.0):
            tracer.emit("worksteal.steal", 0.0, 0.0, thief=2, chunk_items=3)
        worker = Tracer()
        worker.emit(
            "task.execute", 0.0, 0.5,
            node_id=1, runtime_s=0.5, energy_j=3.0, dirty_energy_j=1.0,
        )
        tracer.adopt(worker.finished_spans())
        assert tracer.metrics.snapshot() == fold_all(tracer.finished_spans())
        assert tracer.metrics.snapshot()['repro_tasks_total{node="1"}']["value"] == 1

    def test_the_sink_sees_the_record_already_folded(self):
        tracer = Tracer()
        seen = []
        tracer.set_sink(
            lambda record: seen.append(tracer.metrics.snapshot()["repro_pool_creations_total"])
        )
        tracer.emit("engine.pool.created", 0.0, 0.0)
        assert seen == [{"type": "counter", "value": 1.0}]

    def test_reset_drops_the_fold_with_the_spans(self):
        tracer = Tracer()
        tracer.emit("engine.pool.created", 0.0, 0.0)
        tracer.reset()
        assert tracer.span_count() == 0 and tracer.metrics.snapshot() == {}


def documented_tokens() -> dict[str, set[str]]:
    """``repro_*`` tokens per doc (docs/*.md and the README)."""
    docs = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
    return {
        path.name: set(re.findall(r"\brepro_[a-z0-9_*]+", path.read_text(encoding="utf-8")))
        for path in docs
    }


def matches(token: str) -> bool:
    # A token with ``*`` or a trailing ``_`` names a family of series.
    if "*" in token:
        return bool(fnmatch.filter(FOLDED, token))
    if token.endswith("_"):
        return any(name.startswith(token) for name in FOLDED)
    return token in FOLDED


def test_every_documented_series_is_one_the_fold_emits():
    unknown = {
        doc: sorted(t for t in tokens if not matches(t))
        for doc, tokens in documented_tokens().items()
    }
    assert not {doc: ts for doc, ts in unknown.items() if ts}


def test_the_catalogue_in_the_docs_is_complete():
    assert len(FOLDED) == 19
    assert FOLDED <= documented_tokens()["observability.md"]

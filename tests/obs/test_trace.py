"""Tracer unit tests: spans, nesting, adoption, exports, validation."""

import json
import os
import threading

import pytest

import repro.obs as obs
from repro.obs.trace import (
    NOOP_SPAN,
    SCHEMA_VERSION,
    SPAN_REQUIRED_KEYS,
    Tracer,
    iter_records,
    read_spans,
    validate_jsonl,
)


class TestSpanLifecycle:
    def test_span_records_on_exit(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as sp:
            sp.set_attr("extra", True)
        (record,) = tracer.finished_spans()
        assert record["name"] == "work"
        assert record["attrs"] == {"items": 3, "extra": True}
        assert record["parent_id"] is None
        assert record["pid"] == os.getpid()
        assert record["duration_s"] >= 0.0
        assert SPAN_REQUIRED_KEYS <= record.keys()

    def test_nested_spans_are_parented(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, outer_rec = tracer.finished_spans()
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer.span_id
        assert outer_rec["parent_id"] is None

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("no")
        (record,) = tracer.finished_spans()
        assert record["error"] == "RuntimeError"

    def test_emit_pre_timed(self):
        tracer = Tracer()
        record = tracer.emit("sim", start_s=100.0, duration_s=2.5, node=3)
        assert record["start_s"] == 100.0
        assert record["duration_s"] == 2.5
        assert record["attrs"] == {"node": 3}
        assert tracer.finished_spans() == [record]

    def test_emit_inherits_current_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            record = tracer.emit("child", start_s=0.0, duration_s=1.0)
        assert record["parent_id"] == outer.span_id

    def test_empty_tracer_is_truthy(self):
        # Regression: a __len__ made empty tracers falsy, which silently
        # disabled every ``if tracer`` guard in the engines.
        tracer = Tracer()
        assert bool(tracer)
        assert tracer.span_count() == 0


class TestAdopt:
    def _worker_record(self, parent_id=None):
        return {
            "type": "span", "name": "worker.run", "span_id": "dead-1",
            "parent_id": parent_id, "pid": 1, "tid": 1,
            "start_s": 0.0, "duration_s": 0.1, "attrs": {},
        }

    def test_adopt_reparents_roots(self):
        tracer = Tracer()
        tracer.adopt([self._worker_record()], parent_id="abc-1")
        (record,) = tracer.finished_spans()
        assert record["parent_id"] == "abc-1"

    def test_adopt_keeps_existing_parents(self):
        tracer = Tracer()
        tracer.adopt([self._worker_record(parent_id="w-9")], parent_id="abc-1")
        (record,) = tracer.finished_spans()
        assert record["parent_id"] == "w-9"

    def test_adopt_without_parent_is_passthrough(self):
        tracer = Tracer()
        original = self._worker_record()
        tracer.adopt([original])
        assert tracer.finished_spans() == [original]


class TestThreading:
    def test_parent_stacks_are_per_thread(self):
        tracer = Tracer()
        seen = {}

        def worker():
            # This thread has no open span, so its child is a root.
            with tracer.span("t2"):
                seen["t2_parent"] = tracer.current_span_id()

        with tracer.span("t1"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        records = {r["name"]: r for r in tracer.finished_spans()}
        assert records["t2"]["parent_id"] is None
        assert records["t1"]["parent_id"] is None


class TestExport:
    def _populate(self, tracer):
        with tracer.span("stage.sketch", items=10):
            pass
        tracer.emit("task.execute", start_s=5.0, duration_s=1.0, node_id=0)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        self._populate(tracer)
        path = tmp_path / "t.jsonl"
        assert tracer.export_jsonl(path) == 2
        meta, spans = read_spans(path)
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["span_count"] == 2
        assert [s["name"] for s in spans] == ["stage.sketch", "task.execute"]

    @pytest.mark.parametrize(
        "meta_patch, message",
        [({"span_count": 5}, "span_count"), ({"schema_version": 99}, "schema_version")],
    )
    def test_read_spans_checks_the_header(self, tmp_path, meta_patch, message):
        tracer = Tracer()
        self._populate(tracer)
        path = tmp_path / "t.jsonl"
        tracer.export_jsonl(path)
        meta, *spans = path.read_text().splitlines()
        patched = {**json.loads(meta), **meta_patch}
        path.write_text("\n".join([json.dumps(patched), *spans]) + "\n")
        with pytest.raises(ValueError, match=message):
            read_spans(path)

    def test_validate_jsonl(self, tmp_path):
        tracer = Tracer()
        self._populate(tracer)
        path = tmp_path / "t.jsonl"
        tracer.export_jsonl(path)
        summary = validate_jsonl(path)
        assert summary["spans"] == 2
        assert summary["names"] == ["stage.sketch", "task.execute"]

    def test_validate_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        meta = {"type": "meta", "schema_version": SCHEMA_VERSION, "span_count": 1}
        bad = {"type": "span", "name": "x"}
        path.write_text(json.dumps(meta) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="missing keys"):
            validate_jsonl(path)

    def test_validate_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        meta = {"type": "meta", "schema_version": SCHEMA_VERSION, "span_count": 7}
        path.write_text(json.dumps(meta) + "\n")
        with pytest.raises(ValueError, match="span_count"):
            validate_jsonl(path)

    def test_chrome_export(self, tmp_path):
        tracer = Tracer()
        self._populate(tracer)
        path = tmp_path / "t.chrome.json"
        assert tracer.export_chrome(path) == 2
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        assert all(e["ts"] >= 0 for e in events)
        assert {e["name"] for e in events} == {"stage.sketch", "task.execute"}


class TestGlobalSwitch:
    def test_disabled_span_is_noop_singleton(self):
        assert obs.span("anything") is NOOP_SPAN
        with obs.span("anything") as sp:
            sp.set_attr("k", 1)  # must not blow up
            assert sp.span_id is None
        assert obs.get_tracer().finished_spans() == []

    def test_disabled_emit_returns_none(self):
        assert obs.emit("x", start_s=0.0, duration_s=1.0) is None

    def test_enable_collects(self):
        obs.enable()
        with obs.span("live"):
            pass
        names = [s["name"] for s in obs.get_tracer().finished_spans()]
        assert names == ["live"]


class TestSink:
    def test_sink_sees_every_finished_span(self):
        tracer = Tracer()
        seen = []
        tracer.set_sink(seen.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.emit("task.execute", start_s=0.0, duration_s=1.0)
        assert [r["name"] for r in seen] == ["inner", "outer", "task.execute"]

    def test_sink_sees_adopted_records(self):
        worker = Tracer()
        with worker.span("remote"):
            pass
        main = Tracer()
        seen = []
        main.set_sink(seen.append)
        main.adopt(worker.finished_spans())
        assert [r["name"] for r in seen] == ["remote"]

    def test_failing_sink_detaches_and_tracing_survives(self, caplog):
        tracer = Tracer()
        calls = []

        def bad(record):
            calls.append(record["name"])
            raise RuntimeError("consumer exploded")

        tracer.set_sink(bad)
        with caplog.at_level("WARNING"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        # One failure, then detached: the second span never reaches it
        # and both spans are still recorded.
        assert calls == ["first"]
        assert [s["name"] for s in tracer.finished_spans()] == ["first", "second"]
        assert any("trace.sink.detached" in r.message for r in caplog.records)


class TestStreamingReaders:
    N_SPANS = 5000

    def _big_trace(self, tmp_path):
        tracer = Tracer()
        for i in range(self.N_SPANS):
            tracer.emit("task.execute", start_s=float(i), duration_s=0.5, node_id=i % 4)
        path = tmp_path / "big.jsonl"
        tracer.export_jsonl(path)
        return path

    def test_iter_records_is_lazy(self, tmp_path):
        path = self._big_trace(tmp_path)
        it = iter(iter_records(path))
        first = next(it)
        assert first["type"] == "meta"
        second = next(it)
        assert second["name"] == "task.execute"
        it.close()  # closing early must not error (file handle released)

    def test_validate_streams_large_trace(self, tmp_path):
        path = self._big_trace(tmp_path)
        summary = validate_jsonl(path)
        assert summary["spans"] == self.N_SPANS
        assert summary["names"] == ["task.execute"]

    def test_iter_records_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        meta = {"type": "meta", "schema_version": SCHEMA_VERSION, "span_count": 1}
        bad = {"type": "span", "name": "x"}
        path.write_text(json.dumps(meta) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            list(iter_records(path))

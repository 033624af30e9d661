"""Metrics registry unit tests: instruments, snapshot, Prometheus text."""

import threading

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
)


@pytest.fixture()
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_inc(self, reg):
        c = reg.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self, reg):
        with pytest.raises(ValueError):
            reg.counter("hits").inc(-1)

    def test_labelled_families_are_distinct(self, reg):
        reg.counter("tasks", node="0").inc()
        reg.counter("tasks", node="1").inc(5)
        assert reg.counter("tasks", node="0").value == 1
        assert reg.counter("tasks", node="1").value == 5

    def test_get_or_create_returns_same_instrument(self, reg):
        assert reg.counter("x", a="1") is reg.counter("x", a="1")

    def test_kind_clash_raises(self, reg):
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestGauge:
    def test_set(self, reg):
        g = reg.gauge("live")
        assert g.value == 0.0
        g.set(10)
        assert g.value == 10.0
        g.set(3)  # a gauge goes down as well as up
        assert g.value == 3.0


class TestHistogram:
    def test_bucketing(self, reg):
        h = reg.histogram("lat", bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # one per bucket incl. +inf
        assert h.count == 4
        assert h.mean == pytest.approx(55.55 / 4)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 0.5))

    def test_thread_safety(self, reg):
        h = reg.histogram("lat", bounds=(0.5,))
        threads = [
            threading.Thread(target=lambda: [h.observe(0.1) for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000


class TestSnapshot:
    def test_snapshot_shapes(self, reg):
        reg.counter("c", node="0").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap['c{node="0"}'] == {"type": "counter", "value": 2}
        assert snap["g"] == {"type": "gauge", "value": 1.5}
        assert snap["h"]["type"] == "histogram"
        assert snap["h"]["count"] == 1
        assert snap["h"]["buckets"] == {"1.0": 1, "+inf": 0}

    def test_reset(self, reg):
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {}


class TestPrometheus:
    def test_counter_and_gauge_lines(self, reg):
        reg.counter("repro_tasks_total", node="0").inc(3)
        reg.gauge("repro_live").set(2)
        text = reg.render_prometheus()
        assert "# TYPE repro_tasks_total counter" in text
        assert 'repro_tasks_total{node="0"} 3.0' in text
        assert "# TYPE repro_live gauge" in text
        assert "repro_live 2.0" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self, reg):
        h = reg.histogram("repro_lat", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.render_prometheus()
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1.0"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_empty_registry_renders_empty(self, reg):
        assert reg.render_prometheus() == ""

    def test_label_values_are_escaped(self, reg):
        # Backslash, quote and newline in a label value must survive a
        # Prometheus text-format round trip (spec: \\, \", \n escapes).
        reg.counter("repro_evil", path='C:\\tmp', note='say "hi"\nbye').inc()
        text = reg.render_prometheus()
        assert 'path="C:\\\\tmp"' in text
        assert 'note="say \\"hi\\"\\nbye"' in text
        # The rendered exposition stays one line per sample.
        sample_lines = [
            line for line in text.splitlines() if line.startswith("repro_evil{")
        ]
        assert len(sample_lines) == 1

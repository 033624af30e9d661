"""Tests for the live telemetry plane (bus, estimator, ledger, SLOs)."""

import threading
from typing import Sequence

import pytest

import repro.obs as obs
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.obs.energy import energy_split
from repro.obs.live import (
    Ledger,
    LivePlane,
    NodeEstimator,
    Objective,
    SLOMonitor,
    TelemetryBus,
    active_plane,
    current_tenant,
    enable_live,
    live_enabled,
    reset_live,
    tenant_context,
)
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


# -- bus ---------------------------------------------------------------------


class TestTelemetryBus:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TelemetryBus(0)

    def test_publish_assigns_increasing_seq(self):
        bus = TelemetryBus(8)
        assert bus.publish("a") == 1
        assert bus.publish("b", x=1) == 2
        assert bus.last_seq == 2

    def test_drop_oldest_and_drop_counter(self):
        bus = TelemetryBus(3)
        for i in range(5):
            bus.publish("e", i=i)
        events = bus.events_since(0)
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert bus.dropped == 2
        assert bus.stats() == {
            "capacity": 3, "published": 5, "buffered": 3, "dropped": 2,
        }

    def test_events_since_filters_and_limits(self):
        bus = TelemetryBus(16)
        for i in range(6):
            bus.publish("e", i=i)
        assert [e["seq"] for e in bus.events_since(4)] == [5, 6]
        # limit keeps the newest, matching the ring's own bias
        assert [e["seq"] for e in bus.events_since(0, limit=2)] == [5, 6]

    def test_wait_for_times_out_empty(self):
        bus = TelemetryBus(4)
        assert bus.wait_for(since=0, timeout_s=0.01) == []

    def test_wait_for_wakes_on_publish(self):
        bus = TelemetryBus(4)
        got: list[dict] = []

        def poll():
            got.extend(bus.wait_for(since=0, timeout_s=5.0))

        t = threading.Thread(target=poll)
        t.start()
        bus.publish("wake", v=42)
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert got and got[0]["kind"] == "wake"
        assert got[0]["data"] == {"v": 42}


# -- estimator ---------------------------------------------------------------


def _task_attrs(node_id, work, runtime, watts, dirty_frac=0.4, workload="sum"):
    energy = watts * runtime
    return {
        "node_id": node_id,
        "work_units": work,
        "runtime_s": runtime,
        "energy_j": energy,
        "dirty_energy_j": dirty_frac * energy,
        "workload": workload,
    }


class TestNodeEstimator:
    SPEEDS = {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}
    WATTS = {0: 440.0, 1: 345.0, 2: 250.0, 3: 155.0}
    UNIT_RATE = 1e4
    OVERHEAD = 0.05

    def _feed(self, est, works=(100, 200, 400, 800, 1600)):
        for work in works:
            for node, speed in self.SPEEDS.items():
                runtime = self.OVERHEAD / speed + work / (self.UNIT_RATE * speed)
                est.observe_task(
                    _task_attrs(node, work, runtime, self.WATTS[node])
                )

    def test_recovers_linear_models_and_power(self):
        est = NodeEstimator()
        self._feed(est)
        nodes = est.snapshot()
        assert [n["node_id"] for n in nodes] == [0, 1, 2, 3]
        for node in nodes:
            speed = self.SPEEDS[node["node_id"]]
            watts = self.WATTS[node["node_id"]]
            true_slope = 1.0 / (self.UNIT_RATE * speed)
            assert node["slope_s_per_item"] == pytest.approx(true_slope, rel=0.01)
            assert node["intercept_s"] == pytest.approx(
                self.OVERHEAD / speed, rel=0.05
            )
            assert node["throughput_items_per_s"] == pytest.approx(
                self.UNIT_RATE * speed, rel=0.01
            )
            assert node["power_w"] == pytest.approx(watts)
            assert node["dirty_power_w"] == pytest.approx(0.4 * watts)
            assert node["green_power_w"] == pytest.approx(0.6 * watts)
            assert node["samples"] == 5

    def test_zero_work_task_informs_power_but_not_the_model(self):
        est = NodeEstimator()
        runtime = 0.5
        est.observe_task(_task_attrs(0, 0.0, runtime, 440.0))
        (one,) = est.snapshot()
        assert one["power_w"] == pytest.approx(440.0)
        assert one["samples"] == 1
        assert one["slope_s_per_item"] == 0.0  # no regression evidence

    def test_decay_tracks_a_slowing_node(self):
        est = NodeEstimator()
        works = (100, 200, 400, 800)
        for _ in range(3):
            for work in works:
                est.observe_task(_task_attrs(0, work, work * 1e-4, 440.0))
        fast_slope = est.snapshot()[0]["slope_s_per_item"]
        assert fast_slope == pytest.approx(1e-4, rel=0.01)
        # The node halves in speed; old evidence must decay away.
        for _ in range(100):
            for work in works:
                est.observe_task(_task_attrs(0, work, work * 2e-4, 440.0))
        slow_slope = est.snapshot()[0]["slope_s_per_item"]
        assert slow_slope == pytest.approx(2e-4, rel=0.01)

    def test_degenerate_single_size_falls_back_to_flat_model(self):
        est = NodeEstimator()
        for _ in range(5):
            est.observe_task(_task_attrs(0, 100.0, 0.25, 440.0))
        (node,) = est.snapshot()
        assert node["slope_s_per_item"] == 0.0
        assert node["intercept_s"] == pytest.approx(0.25)


# -- ledger ------------------------------------------------------------------


class TestLedger:
    def test_charge_and_totals(self):
        ledger = Ledger()
        ledger.charge("acme", green_j=6.0, dirty_j=4.0)
        ledger.charge("acme", green_j=1.0, dirty_j=1.0)
        ledger.charge("beta", green_j=2.0, dirty_j=0.0)
        totals = ledger.totals()
        assert list(totals) == ["acme", "beta"]
        assert totals["acme"]["energy_j"] == pytest.approx(12.0)
        assert totals["acme"]["tasks"] == 2
        grand = ledger.grand_total()
        assert grand["energy_j"] == pytest.approx(14.0)
        assert grand["green_j"] == pytest.approx(9.0)
        assert grand["dirty_j"] == pytest.approx(5.0)

    def test_reconcile_against_energy_split(self):
        ledger = Ledger()
        ledger.charge("acme", green_j=3.0, dirty_j=7.0)
        split = {"energy_j": 10.0, "dirty_energy_j": 7.0, "green_energy_j": 3.0}
        assert ledger.reconcile(split)["ok"]
        bad = {"energy_j": 10.5, "dirty_energy_j": 7.0, "green_energy_j": 3.5}
        result = ledger.reconcile(bad)
        assert not result["ok"]
        assert result["energy_diff_j"] == pytest.approx(0.5)


# -- SLO monitor -------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSLOMonitor:
    def _monitor(self, clock):
        return SLOMonitor(
            (Objective("latency", threshold=1.0, budget=0.1,
                       fast_window_s=5.0, slow_window_s=60.0),),
            clock=clock,
        )

    def test_ok_while_under_threshold(self):
        clock = FakeClock()
        mon = self._monitor(clock)
        for _ in range(20):
            mon.record("latency", 0.5)
        status = mon.status()["latency"]
        assert status["state"] == "ok"
        assert status["fast_burn"] == 0.0

    def test_burning_then_recovers_when_windows_pass(self):
        clock = FakeClock()
        mon = self._monitor(clock)
        for _ in range(10):
            mon.record("latency", 5.0)  # all bad: burn = 1/0.1 = 10
        status = mon.status()["latency"]
        assert status["state"] == "burning"
        assert mon.burning() == ["latency"]
        assert status["fast_burn"] == pytest.approx(10.0)
        clock.now = 61.0  # both windows have emptied
        assert mon.status()["latency"]["state"] == "ok"
        assert mon.burning() == []

    def test_warn_needs_only_the_fast_window(self):
        clock = FakeClock()
        mon = self._monitor(clock)
        for _ in range(50):
            mon.record("latency", 0.5)
        clock.now = 58.0
        for _ in range(3):
            mon.record("latency", 5.0)
        status = mon.status()["latency"]
        assert status["fast_burn"] >= 1.0
        assert status["slow_burn"] < 1.0
        assert status["state"] == "warn"

    def test_unknown_objective_is_ignored(self):
        mon = self._monitor(FakeClock())
        mon.record("nope", 1.0)  # must not raise
        assert "nope" not in mon.status()

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            SLOMonitor((Objective("a", 1.0), Objective("a", 2.0)))


# -- plane lifecycle & span sink --------------------------------------------


class TestLivePlaneLifecycle:
    def test_enable_live_attaches_and_enables_obs(self):
        assert not live_enabled()
        plane = enable_live()
        assert live_enabled()
        assert obs.enabled()
        assert active_plane() is plane
        assert enable_live() is plane  # idempotent singleton

    def test_reset_live_detaches_and_drops(self):
        plane = enable_live()
        reset_live()
        assert not live_enabled()
        assert active_plane() is None
        assert enable_live() is not plane  # dropped, not just detached

    def test_tenant_context_nests_and_restores(self):
        assert current_tenant() == Ledger.UNATTRIBUTED
        with tenant_context("acme"):
            assert current_tenant() == "acme"
            with tenant_context("beta"):
                assert current_tenant() == "beta"
            assert current_tenant() == "acme"
        assert current_tenant() == Ledger.UNATTRIBUTED


class TestPlaneSpanSink:
    def test_spans_flow_to_bus_ledger_and_estimator(self, cluster):
        plane = enable_live()
        engine = SimulatedEngine(cluster, unit_rate=10.0)
        parts = [[1] * 40, [2] * 40, [3] * 40, [4] * 40]
        with tenant_context("acme"):
            engine.run_job(SumWorkload(), parts)
        # Ledger reconciles with energy_split over the same spans.
        split = energy_split(obs.get_tracer().finished_spans())
        assert split["energy_j"] > 0
        recon = plane.ledger.reconcile(split)
        assert recon["ok"], recon
        assert list(plane.ledger.totals()) == ["acme"]
        # Estimator saw every node the job touched.
        assert [n["node_id"] for n in plane.estimator.snapshot()] == [0, 1, 2, 3]
        # The bus carries spans and nothing else; the job's summary
        # rides on the engine.run_job span's attributes.
        published = plane.bus.events_since(0)
        assert {e["kind"] for e in published} == {"span"}
        events = [e["data"] for e in published]
        assert [e["name"] for e in events] == ["task.execute"] * 4 + ["engine.run_job"]
        job_attrs = events[-1]["attrs"]
        assert job_attrs["workload"] == "sum"
        assert job_attrs["engine"] == "SimulatedEngine"
        assert job_attrs["makespan_s"] > 0
        assert job_attrs["total_energy_j"] == pytest.approx(split["energy_j"])
        assert all(e["tenant"] == "acme" for e in events)

    def test_detached_plane_gets_nothing(self, cluster):
        plane = enable_live()
        plane.detach()
        obs.enable()
        engine = SimulatedEngine(cluster, unit_rate=10.0)
        engine.run_job(SumWorkload(), [[1] * 10])
        assert plane.bus.last_seq == 0
        assert plane.ledger.grand_total()["tasks"] == 0

    def test_snapshot_shape(self, cluster):
        plane = enable_live()
        engine = SimulatedEngine(cluster, unit_rate=10.0)
        with tenant_context("acme"):
            engine.run_job(SumWorkload(), [[1] * 10, [2] * 10])
        snap = plane.snapshot()
        assert set(snap) == {"time_s", "bus", "nodes", "tenants", "slo"}
        assert snap["bus"]["published"] > 0
        assert {n["node_id"] for n in snap["nodes"]} <= {0, 1, 2, 3}
        assert "acme" in snap["tenants"]
        assert set(snap["slo"]) == {"job_latency", "dirty_j_per_job", "queue_wait"}

"""Live telemetry plane wired through the real job service.

The acceptance story for the live plane: run the service under load and
check that (a) the online estimator recovers the *configured* cluster
(speeds and watts), (b) the per-tenant ledger reconciles with the obs
trace to 1e-6, (c) induced overload flips the queue-wait SLO to
burning and back, and (d) ``GET /live`` + ``repro obs top`` actually
serve/render the picture.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs.energy import energy_split
from repro.obs.live import (
    Objective,
    SLOMonitor,
    enable_live,
    live_enabled,
)
from repro.obs.live.dashboard import fetch_live, render_dashboard
from repro.service import ServiceConfig, build_service
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec

from tests.service.test_manager import (
    BlockingExecutor,
    make_manager,
    wait_for,
)

# alpha=None is the stratified equal-split baseline: every node gets a
# share of every job, so the online regression sees varied work sizes
# on all four nodes (Pareto plans legitimately starve slow nodes).
SPEC = {"workload": "webgraph", "dataset": "uk", "seed": 0, "alpha": None}


@pytest.fixture()
def live_service():
    plane = enable_live()
    svc = build_service(
        engine="simulated",
        num_nodes=4,
        port=0,
        config=ServiceConfig(max_queue_depth=16, concurrency=2, result_ttl_s=120.0),
    )
    with svc:
        yield svc, plane


def _run_mixed_load(svc, sizes=(0.02, 0.05, 0.08)):
    """A few jobs at different scales (varied per-node work sizes keep
    the online regression well-conditioned)."""
    client = ServiceClient(svc.url)
    finals = []
    for tenant, size in zip(("acme", "beta", "acme"), sizes):
        resp = client.submit(dict(SPEC, size_scale=size, tenant=tenant))
        assert resp.status == 202
        finals.append(client.wait(resp.body["job_id"], timeout_s=60.0))
    assert [f.body["state"] for f in finals] == ["SUCCEEDED"] * len(sizes)
    return finals


class TestEstimatorUnderServiceLoad:
    def test_estimates_match_configured_cluster(self, live_service):
        svc, plane = live_service
        _run_mixed_load(svc)
        cluster = svc.executor.engine.cluster
        unit_rate = svc.executor.engine.unit_rate
        estimate = plane.estimator.snapshot()
        # Every node observed: the estimator lists only nodes it has seen.
        assert [est["node_id"] for est in estimate] == [
            node.node_id for node in cluster.nodes
        ]
        for node, est in zip(cluster.nodes, estimate):
            assert est["samples"] > 0
            # Within 15% of the configured cluster.
            assert est["throughput_items_per_s"] == pytest.approx(
                unit_rate * node.speed_factor, rel=0.15
            )
            assert est["power_w"] == pytest.approx(node.watts, rel=0.15)


class TestLedgerUnderServiceLoad:
    def test_ledger_reconciles_and_attributes_tenants(self, live_service):
        svc, plane = live_service
        finals = _run_mixed_load(svc)
        split = energy_split(obs.get_tracer().finished_spans())
        recon = plane.ledger.reconcile(split, tol=1e-6)
        assert recon["ok"], recon
        totals = plane.ledger.totals()
        assert set(totals) == {"acme", "beta"}
        # Per-tenant charges sum to what the jobs reported.
        reported = sum(f.body["result"]["total_energy_j"] for f in finals)
        assert plane.ledger.grand_total()["energy_j"] == pytest.approx(
            reported, abs=1e-6
        )


class TestLiveEndpoint:
    def test_503_when_plane_disabled(self):
        svc = build_service(
            engine="simulated", port=0,
            config=ServiceConfig(max_queue_depth=4, concurrency=1),
        )
        with svc:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{svc.url}/live", timeout=5.0)
            assert err.value.code == 503
            body = json.loads(err.value.read())
            assert "not enabled" in body["error"]

    def test_503_once_the_tracer_drops_a_raising_sink(self, live_service):
        # "Attached" is read off the tracer: when the sink raises and
        # the tracer detaches it, the plane stops claiming to be live.
        svc, plane = live_service
        assert fetch_live(svc.url)["seq"] == 0
        plane.bus.publish = None  # the next span makes publish_span raise
        with obs.span("boom"):
            pass
        assert not plane.attached
        assert not live_enabled()
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{svc.url}/live", timeout=5.0)
        assert err.value.code == 503

    def test_slo_samples_and_queue_posture_come_off_the_spans(self, live_service):
        svc, plane = live_service
        finals = _run_mixed_load(svc)
        status = plane.slo.status()
        for name in ("queue_wait", "job_latency", "dirty_j_per_job"):
            assert status[name]["slow_samples"] == len(finals), name
        events = [e["data"] for e in fetch_live(svc.url)["events"]]
        runs = [e for e in events if e["name"] == "service.run"]
        assert [e["attrs"]["state"] for e in runs] == ["SUCCEEDED"] * len(finals)
        assert [e["attrs"]["total_dirty_energy_j"] for e in runs] == [
            f.body["result"]["total_dirty_energy_j"] for f in finals
        ]
        for e, final in zip(runs, finals):
            assert e["attrs"]["queue_wait_s"] == final.body["queue_wait_s"]
        for name in ("service.submit", "service.queue_wait"):
            posture = [e["attrs"] for e in events if e["name"] == name]
            assert len(posture) == len(finals)
            assert all(p["depth"] >= 0 and p["running"] >= 0 for p in posture)

    def test_snapshot_events_and_longpoll(self, live_service):
        svc, _plane = live_service
        _run_mixed_load(svc, sizes=(0.02,))
        payload = fetch_live(svc.url)
        assert payload["seq"] > 0
        assert payload["events"], "buffered events should be returned"
        assert payload["queue"]["accepting"] is True
        snap = payload["snapshot"]
        assert snap["nodes"] and "tenants" in snap and "slo" in snap
        # Long-polling past the tip returns promptly with no events.
        t0 = time.monotonic()
        tail = fetch_live(svc.url, since=payload["seq"], timeout_s=0.2)
        assert tail["events"] == []
        assert time.monotonic() - t0 < 5.0


class TestQueueWaitSLOUnderOverload:
    def test_overload_burns_then_recovers(self):
        # Tight windows so the test observes a full burn/recover cycle.
        plane = enable_live(
            slo=SLOMonitor((
                Objective(
                    "queue_wait", threshold=0.25, budget=0.05,
                    fast_window_s=1.0, slow_window_s=2.0, unit="s",
                ),
            ))
        )
        executor = BlockingExecutor()
        manager = make_manager(executor, max_queue_depth=8, concurrency=1)
        try:
            records = [manager.submit(JobSpec(tenant="t")) for _ in range(4)]
            assert executor.started.wait(timeout=10.0)
            time.sleep(0.6)  # queued jobs accumulate > threshold of wait
            executor.release.set()
            assert wait_for(lambda: all(r.done for r in records))
            status = plane.slo.status()["queue_wait"]
            assert status["state"] == "burning", status
            assert plane.slo.burning() == ["queue_wait"]
            # Recovery: the burst ages out of both windows and fresh
            # uncontended jobs come back with negligible waits.
            time.sleep(2.1)
            assert plane.slo.status()["queue_wait"]["state"] == "ok"
            fresh = manager.submit(JobSpec(tenant="t"))
            assert wait_for(lambda: fresh.done)
            assert plane.slo.status()["queue_wait"]["state"] == "ok"
        finally:
            executor.release.set()
            manager.drain(timeout_s=10.0)


class TestDashboardAgainstLiveServer:
    def test_obs_top_once_renders(self, live_service, capsys):
        svc, _plane = live_service
        _run_mixed_load(svc, sizes=(0.02, 0.05))
        code = main(["obs", "top", "--once", "--url", svc.url])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro live" in out
        for header in ("NODE", "TENANT", "SLO", "QUEUE"):
            assert header in out, f"missing {header} section:\n{out}"
        # And the library path renders the same payload.
        text = render_dashboard(fetch_live(svc.url), source=svc.url)
        assert "items/s" in text

    def test_obs_top_unreachable_is_exit_1(self, capsys):
        code = main(["obs", "top", "--once", "--url", "http://127.0.0.1:9"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

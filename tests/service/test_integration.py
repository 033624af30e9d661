"""End-to-end service tests on the real ProcessPoolEngine.

These are the acceptance tests for the service's performance story:
concurrent repeat jobs must ride the shared-memory dataplane caches
(the engine is shared, so re-staged partitions hit the identity/digest
caches instead of re-pickling), per-job energy must reconcile exactly
with the obs trace, and a graceful drain must leave no orphaned
shared-memory segments.
"""

from __future__ import annotations

import threading

import pytest

import repro.obs as obs
from repro.obs.energy import energy_split
from repro.service import ServiceConfig, build_service
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, JobState
from repro.service.manager import JobManager

SPEC = {"workload": "apriori", "dataset": "rcv1", "size_scale": 0.05, "support": 0.2}


@pytest.fixture()
def service():
    svc = build_service(
        engine="process",
        num_nodes=4,
        max_workers=2,
        port=0,
        config=ServiceConfig(max_queue_depth=16, concurrency=2, result_ttl_s=120.0),
    )
    with svc:
        yield svc


class TestRepeatJobsShareDataplane:
    def test_concurrent_repeat_jobs_hit_digest_cache(self, service):
        client = ServiceClient(service.url)
        # Two scenario variants over the same dataset: the second
        # prepare builds new partition objects with identical content,
        # so staging them is a digest-cache hit (no re-serialization);
        # repeats of the same prepared scenario are identity hits.
        specs = [dict(SPEC), dict(SPEC), dict(SPEC, support=0.3), dict(SPEC, support=0.3)]
        responses: list = [None] * len(specs)

        def submit(i):
            responses[i] = client.submit(specs[i])

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(specs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert all(r is not None and r.status == 202 for r in responses)
        finals = [
            client.wait(r.body["job_id"], timeout_s=120.0) for r in responses
        ]
        assert [f.body["state"] for f in finals] == ["SUCCEEDED"] * len(specs)

        audit = service.executor.dataplane_audit()
        assert audit["identity_hits"] > 0, audit  # repeat runs, same objects
        assert audit["digest_hits"] > 0, audit  # re-prepared equal content
        # Digest hits serialize (to hash) but create no new segment, so
        # unique segments stay below total serializations.
        assert audit["segments_created"] < audit["serializations"]
        assert service.executor.scenarios_prepared == 2

    def test_energy_reconciles_with_trace(self, service):
        obs.enable()
        obs.reset()
        client = ServiceClient(service.url)
        jobs = [client.submit(dict(SPEC, seed=0)) for _ in range(3)]
        finals = [client.wait(r.body["job_id"], timeout_s=120.0) for r in jobs]
        assert [f.body["state"] for f in finals] == ["SUCCEEDED"] * 3

        total_from_results = sum(f.body["result"]["total_energy_j"] for f in finals)
        assert total_from_results > 0  # or the books below balance vacuously
        dirty_from_results = sum(
            f.body["result"]["total_dirty_energy_j"] for f in finals
        )
        spans = obs.get_tracer().finished_spans()
        split = energy_split(spans)
        assert split["energy_j"] == pytest.approx(total_from_results, abs=1e-6)
        assert split["dirty_energy_j"] == pytest.approx(dirty_from_results, abs=1e-6)


class TestGracefulShutdown:
    def test_drain_leaves_no_orphaned_shm(self, service):
        client = ServiceClient(service.url)
        resp = client.submit(dict(SPEC))
        assert resp.status == 202
        final = client.wait(resp.body["job_id"], timeout_s=120.0)
        assert final.body["state"] == "SUCCEEDED"

        before = service.executor.dataplane_audit()
        assert before["segments_created"] > 0  # the dataplane really ran
        assert service.manager.shutdown(timeout_s=60.0) is True
        after = service.executor.dataplane_audit()
        assert after["store_closed"] is True
        assert after["live_segments"] == 0


class TestInProcessManagerOnEngine:
    def test_mixed_scenarios_queue_and_finish(self, service):
        manager: JobManager = service.manager
        records = [
            manager.submit(JobSpec(size_scale=0.05, support=0.2, seed=0)),
            manager.submit(JobSpec(size_scale=0.05, support=0.2, seed=0, alpha=0.99)),
            manager.submit(
                JobSpec(
                    workload="webgraph", dataset="uk", size_scale=0.05, seed=0
                )
            ),
        ]
        assert all(r.state is JobState.QUEUED for r in records)
        assert manager.drain(timeout_s=120.0) is True
        assert [r.state for r in records] == [JobState.SUCCEEDED] * 3
        # Per-request operating points really differ per job.
        assert records[0].result["strategy"] != records[1].result["strategy"]
        assert records[2].result["quality"].get("compression_ratio") is not None

"""JobManager admission control, lifecycle, and drain semantics.

These tests use stub executors (no engine, no processes) so every
backpressure edge case is exercised deterministically: the blocking
executor holds jobs RUNNING until the test releases them, which lets a
test fill the queue to an exact depth before probing admission.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

import repro.obs as obs
from repro.service.jobs import JobSpec, JobState
from repro.service.manager import DEFAULT_RETRY_AFTER_S, JobManager, ServiceConfig


def _result(spec) -> dict:
    return {
        "workload": spec.workload,
        "makespan_s": 0.01,
        "total_energy_j": 2.0,
        "total_dirty_energy_j": 1.0,
        "green_energy_j": 1.0,
    }


class ImmediateExecutor:
    """Runs every job instantly."""

    def __init__(self):
        self.runs = []
        self.closed = False

    def run(self, spec):
        self.runs.append(spec)
        return _result(spec)

    def close(self):
        self.closed = True


class BlockingExecutor(ImmediateExecutor):
    """Holds every job RUNNING until the test sets ``release``."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.started = threading.Event()

    def run(self, spec):
        self.started.set()
        if not self.release.wait(timeout=20.0):
            raise TimeoutError("test never released the executor")
        return super().run(spec)


class FailingExecutor(ImmediateExecutor):
    def run(self, spec):
        raise RuntimeError("scenario exploded")


def wait_for(predicate, timeout_s=10.0, interval_s=0.005):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def make_manager(executor, **overrides) -> JobManager:
    defaults = dict(
        max_queue_depth=2, concurrency=1, per_tenant_inflight=8, result_ttl_s=60.0
    )
    defaults.update(overrides)
    return JobManager(executor, ServiceConfig(**defaults))


class TestLifecycle:
    def test_submit_runs_to_succeeded(self):
        manager = make_manager(ImmediateExecutor())
        record = manager.submit(JobSpec())
        assert record.state is JobState.QUEUED
        assert wait_for(lambda: record.state is JobState.SUCCEEDED)
        assert record.result["total_energy_j"] == 2.0
        assert record.queue_wait_s is not None and record.run_s is not None
        assert manager.drain(timeout_s=5.0)

    def test_failed_job_records_error(self):
        manager = make_manager(FailingExecutor())
        record = manager.submit(JobSpec())
        assert wait_for(lambda: record.state is JobState.FAILED)
        assert "RuntimeError" in record.error
        assert record.result is None
        manager.drain(timeout_s=5.0)

    def test_invalid_spec_raises_before_admission(self):
        manager = make_manager(ImmediateExecutor())
        with pytest.raises(ValueError, match="unknown workload"):
            manager.submit(JobSpec(workload="nope"))
        with pytest.raises(ValueError, match="cannot run on"):
            manager.submit(JobSpec(workload="treemining", dataset="rcv1"))
        manager.drain(timeout_s=5.0)


class TestBackpressure:
    def test_queue_full_rejects_with_retry_hint(self):
        executor = BlockingExecutor()
        manager = make_manager(executor, max_queue_depth=2, concurrency=1)
        first = manager.submit(JobSpec())
        assert executor.started.wait(timeout=5.0)  # worker picked it up
        queued = [manager.submit(JobSpec()) for _ in range(2)]
        assert all(r.state is JobState.QUEUED for r in queued)

        rejected = manager.submit(JobSpec())
        assert rejected.state is JobState.REJECTED
        assert rejected.reject_reason == "queue_full"
        assert rejected.retry_after_s > 0
        assert rejected.done
        # Rejections are terminal records: status queries still answer.
        assert manager.get(rejected.job_id) is rejected
        snap = rejected.snapshot()
        assert snap["reject_reason"] == "queue_full"

        executor.release.set()
        assert wait_for(lambda: first.state is JobState.SUCCEEDED)
        manager.drain(timeout_s=10.0)

    def test_retry_hint_scales_with_ewma_after_first_job(self):
        executor = BlockingExecutor()
        manager = make_manager(executor, max_queue_depth=1, concurrency=1)
        first = manager.submit(JobSpec())
        executor.release.set()
        assert wait_for(lambda: first.state is JobState.SUCCEEDED)
        assert manager.stats()["run_ewma_s"] is not None

        executor.release.clear()
        blocker = manager.submit(JobSpec())
        assert executor.started.wait(timeout=5.0)
        manager.submit(JobSpec())  # fills the depth-1 queue
        rejected = manager.submit(JobSpec())
        assert rejected.state is JobState.REJECTED
        assert rejected.retry_after_s >= DEFAULT_RETRY_AFTER_S
        executor.release.set()
        assert wait_for(lambda: blocker.state is JobState.SUCCEEDED)
        manager.drain(timeout_s=10.0)

    def test_per_tenant_inflight_cap(self):
        executor = BlockingExecutor()
        manager = make_manager(
            executor, max_queue_depth=16, concurrency=1, per_tenant_inflight=2
        )
        a1 = manager.submit(JobSpec(tenant="a"))
        assert executor.started.wait(timeout=5.0)
        a2 = manager.submit(JobSpec(tenant="a"))
        capped = manager.submit(JobSpec(tenant="a"))
        assert capped.state is JobState.REJECTED
        assert capped.reject_reason == "tenant_cap"
        # Another tenant is unaffected by a's cap.
        b1 = manager.submit(JobSpec(tenant="b"))
        assert b1.state is JobState.QUEUED

        executor.release.set()
        assert wait_for(
            lambda: all(
                r.state is JobState.SUCCEEDED for r in (a1, a2, b1)
            )
        )
        # Caps release as jobs finish: tenant a admits again.
        a3 = manager.submit(JobSpec(tenant="a"))
        assert a3.state is JobState.QUEUED
        assert wait_for(lambda: a3.state is JobState.SUCCEEDED)
        manager.drain(timeout_s=10.0)


class TestCancel:
    def test_cancel_queued_job(self):
        executor = BlockingExecutor()
        manager = make_manager(executor, max_queue_depth=4, concurrency=1)
        running = manager.submit(JobSpec())
        assert executor.started.wait(timeout=5.0)
        queued = manager.submit(JobSpec())
        assert manager.cancel(queued.job_id) is True
        assert queued.state is JobState.CANCELLED
        assert queued.done

        executor.release.set()
        assert wait_for(lambda: running.state is JobState.SUCCEEDED)
        # The cancelled job never reached the executor.
        assert len(executor.runs) == 1
        manager.drain(timeout_s=10.0)

    def test_cancelled_jobs_free_their_queue_slots(self):
        # Admission and stats() must agree: a cancelled job no longer
        # waits, so it cannot hold a slot of the bounded queue.
        executor = BlockingExecutor()
        manager = make_manager(executor, max_queue_depth=3, concurrency=1)
        running = manager.submit(JobSpec())
        assert executor.started.wait(timeout=5.0)
        assert wait_for(lambda: running.state is JobState.RUNNING)
        queued = [manager.submit(JobSpec()) for _ in range(3)]
        assert manager.submit(JobSpec()).reject_reason == "queue_full"
        for record in queued:
            assert manager.cancel(record.job_id) is True
        assert manager.stats()["queue_depth"] == 0
        admitted = manager.submit(JobSpec())
        assert admitted.state is JobState.QUEUED, admitted.reject_reason
        assert manager.stats()["queue_depth"] == 1

        executor.release.set()
        assert wait_for(lambda: admitted.state is JobState.SUCCEEDED)
        assert len(executor.runs) == 2  # no cancelled job ever ran
        manager.drain(timeout_s=10.0)

    def test_cancel_running_job_only_flags(self):
        executor = BlockingExecutor()
        manager = make_manager(executor, concurrency=1)
        running = manager.submit(JobSpec())
        assert executor.started.wait(timeout=5.0)
        assert wait_for(lambda: running.state is JobState.RUNNING)
        assert manager.cancel(running.job_id) is False
        assert running.cancel_requested is True
        assert running.state is JobState.RUNNING
        executor.release.set()
        assert wait_for(lambda: running.state is JobState.SUCCEEDED)
        manager.drain(timeout_s=10.0)

    def test_cancel_unknown_job(self):
        manager = make_manager(ImmediateExecutor())
        assert manager.cancel("job-nope") is False
        manager.drain(timeout_s=5.0)


class TestTTLEviction:
    def test_finished_results_evicted_after_ttl(self):
        manager = make_manager(ImmediateExecutor(), result_ttl_s=0.05)
        record = manager.submit(JobSpec())
        assert wait_for(lambda: record.state is JobState.SUCCEEDED)
        assert manager.get(record.job_id) is record
        time.sleep(0.08)
        # Any table access sweeps expired terminal records.
        assert manager.get(record.job_id) is None
        manager.drain(timeout_s=5.0)

    def test_queued_and_running_never_evicted(self):
        executor = BlockingExecutor()
        manager = make_manager(executor, result_ttl_s=0.01, concurrency=1)
        running = manager.submit(JobSpec())
        assert executor.started.wait(timeout=5.0)
        queued = manager.submit(JobSpec())
        time.sleep(0.05)
        assert manager.get(running.job_id) is running
        assert manager.get(queued.job_id) is queued
        executor.release.set()
        assert wait_for(lambda: queued.state is JobState.SUCCEEDED)
        manager.drain(timeout_s=10.0)

    def test_expired_records_leave_in_expiry_order(self, monkeypatch):
        # A frozen manager clock makes every expiry exact: each terminal
        # record leaves result_ttl_s after its own stamp, earliest first,
        # and a queued record — no stamp yet — never leaves.
        clock = [1000.0]
        monkeypatch.setattr(
            "repro.service.manager.time",
            SimpleNamespace(monotonic=lambda: clock[0], time=time.time),
        )
        obs.enable()
        evicted = obs.get_metrics().counter("repro_service_results_evicted_total")
        executor = BlockingExecutor()
        manager = make_manager(
            executor, max_queue_depth=1, concurrency=1, result_ttl_s=10.0
        )
        executor.release.set()
        done = manager.submit(JobSpec())  # SUCCEEDED at 1000
        assert wait_for(lambda: done.state is JobState.SUCCEEDED)
        executor.release.clear()
        executor.started.clear()
        clock[0] = 1001.0
        running = manager.submit(JobSpec())
        assert executor.started.wait(timeout=5.0)
        assert wait_for(lambda: running.state is JobState.RUNNING)
        clock[0] = 1002.0
        cancelled = manager.submit(JobSpec())
        assert manager.cancel(cancelled.job_id)  # CANCELLED at 1002
        clock[0] = 1003.0
        queued = manager.submit(JobSpec())
        rejected = manager.submit(JobSpec())  # REJECTED at 1003
        assert rejected.reject_reason == "queue_full"

        def tracked():
            return [
                r for r in (done, running, cancelled, queued, rejected)
                if manager.get(r.job_id) is r
            ]

        clock[0] = 1009.9
        assert tracked() == [done, running, cancelled, queued, rejected]
        clock[0] = 1010.0
        assert tracked() == [running, cancelled, queued, rejected]
        clock[0] = 1012.5
        assert tracked() == [running, queued, rejected]
        clock[0] = 1e6
        assert tracked() == [running, queued]
        assert evicted.value == 3
        assert manager.stats()["jobs_tracked"] == 2

        executor.release.set()
        assert wait_for(lambda: queued.state is JobState.SUCCEEDED)
        manager.drain(timeout_s=10.0)


class TestDrain:
    def test_drain_finishes_queue_then_rejects(self):
        executor = BlockingExecutor()
        manager = make_manager(executor, max_queue_depth=8, concurrency=2)
        records = [manager.submit(JobSpec()) for _ in range(4)]
        assert executor.started.wait(timeout=5.0)

        done = threading.Event()
        result: dict[str, bool] = {}

        def drainer():
            result["drained"] = manager.drain(timeout_s=20.0)
            done.set()

        threading.Thread(target=drainer, daemon=True).start()
        # Admission stops as soon as the drain begins.
        assert wait_for(lambda: not manager.stats()["accepting"])
        late = manager.submit(JobSpec())
        assert late.state is JobState.REJECTED
        assert late.reject_reason == "draining"

        executor.release.set()
        assert done.wait(timeout=20.0)
        assert result["drained"] is True
        assert all(r.state is JobState.SUCCEEDED for r in records)
        # Workers are stopped; a second drain is an idempotent no-op.
        assert manager.drain(timeout_s=1.0) is True

    def test_drain_timeout_reports_false(self):
        executor = BlockingExecutor()
        manager = make_manager(executor, concurrency=1)
        manager.submit(JobSpec())
        assert executor.started.wait(timeout=5.0)
        assert manager.drain(timeout_s=0.05) is False
        executor.release.set()
        assert manager.drain(timeout_s=10.0) is True

    def test_shutdown_closes_executor(self):
        executor = ImmediateExecutor()
        manager = make_manager(executor)
        record = manager.submit(JobSpec())
        assert wait_for(lambda: record.state is JobState.SUCCEEDED)
        assert manager.shutdown(timeout_s=10.0) is True
        assert executor.closed is True


class TestStats:
    def test_stats_shape(self):
        manager = make_manager(ImmediateExecutor())
        record = manager.submit(JobSpec(tenant="t1"))
        assert wait_for(lambda: record.state is JobState.SUCCEEDED)
        stats = manager.stats()
        assert stats["accepting"] is True
        assert stats["queue_depth"] == 0
        assert stats["states"].get("SUCCEEDED") == 1
        assert stats["config"]["max_queue_depth"] == 2
        manager.drain(timeout_s=5.0)

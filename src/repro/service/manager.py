"""The job manager: bounded queue, admission control, worker loop.

One :class:`JobManager` owns the submission queue and the job table and
drains the queue into a :class:`~repro.service.executor.ScenarioExecutor`
with ``concurrency`` worker threads. Its contract:

- **Bounded queue.** At most ``max_queue_depth`` jobs wait; a submit
  beyond that is *rejected immediately* with a ``retry_after_s`` hint
  derived from current depth and the EWMA job runtime — explicit
  backpressure instead of unbounded memory growth and silent latency.
- **Per-tenant in-flight caps.** One tenant cannot monopolize the
  cluster: queued+running jobs per tenant are capped.
- **Lifecycle.** ``QUEUED → RUNNING → SUCCEEDED|FAILED``; a queued job
  can be cancelled (``CANCELLED``), a running one only flagged (the
  pipeline is not preemptible mid-partition). Rejections are recorded
  as terminal ``REJECTED`` job records so status queries always answer.
- **Result TTL.** Terminal records are evicted ``result_ttl_s`` after
  finishing, so an always-on service holds a bounded job table.
- **Graceful drain.** :meth:`drain` stops admission, lets the workers
  finish every queued job, then stops the worker threads;
  :meth:`shutdown` additionally closes the executor (which drains the
  engine pool before unlinking shared memory).

Every path emits spans and nothing else: ``service.submit`` /
``service.run`` / ``service.drain``, a pre-timed ``service.queue_wait``
span per dequeued job (it and an admitted ``service.submit`` carry the
queue posture, ``depth``, ``peak`` and ``running``), and the
``service.cancel`` / ``service.evict`` marks, all after the lock is
released. The ``repro_service_*`` series are their fold
(:mod:`repro.obs.fold`); the live plane's SLO streams are read off
``service.queue_wait`` and ``service.run``.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

import repro.obs as obs
from repro.obs.live import tenant_context
from repro.obs.log import get_logger, log_event
from repro.service.jobs import JobRecord, JobSpec, JobState

__all__ = ["ServiceConfig", "JobManager"]

_log = get_logger(__name__)

#: Retry hint before any job has finished, and the floor afterwards.
DEFAULT_RETRY_AFTER_S = 0.5


@dataclass(frozen=True)
class ServiceConfig:
    """Admission-control and lifecycle knobs."""

    max_queue_depth: int = 64
    concurrency: int = 2
    per_tenant_inflight: int = 8
    result_ttl_s: float = 300.0

    def validate(self) -> None:
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if self.per_tenant_inflight <= 0:
            raise ValueError("per_tenant_inflight must be positive")
        if self.result_ttl_s <= 0:
            raise ValueError("result_ttl_s must be positive")


class JobManager:
    """Admission control + worker loop over one shared executor."""

    def __init__(self, executor: Any, config: ServiceConfig | None = None):
        self.executor = executor
        self.config = config or ServiceConfig()
        self.config.validate()
        self._cond = threading.Condition()
        self._queue: deque[JobRecord] = deque()
        self._jobs: dict[str, JobRecord] = {}
        # (expires_at, job_id) of every terminal record, in expiry order.
        self._expiry: deque[tuple[float, str]] = deque()
        self._tenant_inflight: dict[str, int] = {}
        self._running = 0
        self._accepting = True
        self._stopped = False
        self._run_ewma_s: float | None = None
        self._peak_queue_depth = 0
        self.started_at_wall = time.time()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{i}", daemon=True
            )
            for i in range(self.config.concurrency)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission & admission control -------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit (or reject) one job. Always returns a record: state
        ``QUEUED`` when admitted, terminal ``REJECTED`` with a reason
        and ``retry_after_s`` hint when the service is saturated."""
        with obs.span(
            "service.submit", tenant=spec.tenant, workload=spec.workload
        ) as sp:
            spec.validate()
            with self._cond:
                evicted = self._evict_expired_locked()
                reason = self._admission_reason_locked(spec)
                if reason is not None:
                    record = self._reject_locked(spec, reason)
                else:
                    record = JobRecord(spec=spec)
                    self._queue.append(record)
                    self._jobs[record.job_id] = record
                    self._tenant_inflight[spec.tenant] = (
                        self._tenant_inflight.get(spec.tenant, 0) + 1
                    )
                    depth = len(self._queue)
                    self._peak_queue_depth = max(self._peak_queue_depth, depth)
                    peak, running = self._peak_queue_depth, self._running
                    self._cond.notify()
            _note_evicted(evicted)
            sp.set_attr("state", record.state.value)
            if reason is not None:
                sp.set_attr("reason", reason)
                return record
            sp.set_attr("job_id", record.job_id)
            sp.set_attr("depth", depth)
            sp.set_attr("peak", peak)
            sp.set_attr("running", running)
            return record

    def _admission_reason_locked(self, spec: JobSpec) -> str | None:
        if not self._accepting:
            return "draining"
        if len(self._queue) >= self.config.max_queue_depth:
            return "queue_full"
        if (
            self._tenant_inflight.get(spec.tenant, 0)
            >= self.config.per_tenant_inflight
        ):
            return "tenant_cap"
        return None

    def _reject_locked(self, spec: JobSpec, reason: str) -> JobRecord:
        record = JobRecord(spec=spec, state=JobState.REJECTED)
        record.reject_reason = reason
        record.retry_after_s = self._retry_after_locked()
        self._jobs[record.job_id] = record
        self._stamp_finished_locked(record)
        log_event(
            _log, logging.DEBUG, "service.submit.rejected",
            job_id=record.job_id, tenant=spec.tenant, reason=reason,
            retry_after_s=round(record.retry_after_s, 3),
        )
        return record

    def _retry_after_locked(self) -> float:
        """Backpressure hint: roughly one queue-drain interval — queued
        work divided by worker concurrency, priced at the EWMA runtime."""
        if self._run_ewma_s is None:
            return DEFAULT_RETRY_AFTER_S
        pending = len(self._queue) + self._running
        per_slot = max(1.0, pending / self.config.concurrency)
        return max(DEFAULT_RETRY_AFTER_S, per_slot * self._run_ewma_s)

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        with self._cond:
            evicted = self._evict_expired_locked()
            record = self._jobs.get(job_id)
        _note_evicted(evicted)
        return record

    def result(self, job_id: str) -> dict[str, Any] | None:
        record = self.get(job_id)
        return None if record is None else record.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job (True). A running or finished job cannot
        be interrupted: the cancel flag is recorded and False returned."""
        with self._cond:
            record = self._jobs.get(job_id)
            if record is None:
                return False
            record.cancel_requested = True
            if record.state is not JobState.QUEUED:
                return False
            record.state = JobState.CANCELLED
            self._stamp_finished_locked(record)
            self._release_tenant_locked(record.spec.tenant)
            # Out of the deque now: its length is what admission and
            # the depth gauges read.
            self._queue.remove(record)
        if obs.enabled():
            obs.emit("service.cancel", time.time(), 0.0, job_id=job_id)
        return True

    def stats(self) -> dict[str, Any]:
        """Queue/lifecycle posture for ``/healthz`` and the harness."""
        with self._cond:
            states: dict[str, int] = {}
            for record in self._jobs.values():
                states[record.state.value] = states.get(record.state.value, 0) + 1
            return {
                "accepting": self._accepting,
                "queue_depth": len(self._queue),
                "peak_queue_depth": self._peak_queue_depth,
                "running": self._running,
                "jobs_tracked": len(self._jobs),
                "states": states,
                "tenants_inflight": dict(self._tenant_inflight),
                "run_ewma_s": self._run_ewma_s,
                "config": {
                    "max_queue_depth": self.config.max_queue_depth,
                    "concurrency": self.config.concurrency,
                    "per_tenant_inflight": self.config.per_tenant_inflight,
                    "result_ttl_s": self.config.result_ttl_s,
                },
            }

    # -- worker loop --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait(timeout=0.1)
                if not self._queue:
                    return  # stopped and the queue is fully drained
                record = self._queue.popleft()
                record.state = JobState.RUNNING
                record.started_at = time.monotonic()
                self._running += 1
                depth = len(self._queue)
                peak, running = self._peak_queue_depth, self._running
            if obs.enabled():
                obs.emit(
                    "service.queue_wait",
                    start_s=record.submitted_wall_s,
                    duration_s=record.queue_wait_s or 0.0,
                    job_id=record.job_id,
                    tenant=record.spec.tenant,
                    depth=depth,
                    peak=peak,
                    running=running,
                )
            self.run_record(record)

    def run_record(self, record: JobRecord) -> None:
        """Execute one dequeued job and finalize its record."""
        spec = record.spec
        with obs.span(
            "service.run",
            job_id=record.job_id,
            tenant=spec.tenant,
            workload=spec.workload,
            dataset=spec.dataset,
            queue_wait_s=record.queue_wait_s or 0.0,
        ) as sp:
            try:
                # Task spans are emitted synchronously on this worker
                # thread, so the tenant context makes the live ledger's
                # per-tenant attribution exact.
                with tenant_context(spec.tenant):
                    result = self.executor.run(spec)
            except Exception as exc:
                log_event(
                    _log, logging.WARNING, "service.run.failed",
                    job_id=record.job_id, workload=spec.workload,
                    error=type(exc).__name__, detail=str(exc),
                )
                self._finish(record, JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
                sp.set_attr("state", record.state.value)
                return
            self._finish(record, JobState.SUCCEEDED, result=result)
            sp.set_attr("state", record.state.value)
            sp.set_attr("makespan_s", result.get("makespan_s"))
            if "total_dirty_energy_j" in result:
                sp.set_attr("total_dirty_energy_j", result["total_dirty_energy_j"])

    def _finish(
        self,
        record: JobRecord,
        state: JobState,
        result: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        with self._cond:
            record.state = state
            record.result = result
            record.error = error
            self._stamp_finished_locked(record)
            self._running -= 1
            self._release_tenant_locked(record.spec.tenant)
            run_s = record.run_s or 0.0
            self._run_ewma_s = (
                run_s
                if self._run_ewma_s is None
                else 0.8 * self._run_ewma_s + 0.2 * run_s
            )
            self._cond.notify_all()

    def _release_tenant_locked(self, tenant: str) -> None:
        left = self._tenant_inflight.get(tenant, 0) - 1
        if left > 0:
            self._tenant_inflight[tenant] = left
        else:
            self._tenant_inflight.pop(tenant, None)

    # -- eviction -----------------------------------------------------------

    def _stamp_finished_locked(self, record: JobRecord) -> None:
        """Mark a record terminal now and queue it for eviction. Every
        record expires ``result_ttl_s`` after a stamp taken under the
        lock, so the expiry queue is in expiry order."""
        now = time.monotonic()
        record.finished_at = now
        record.expires_at = now + self.config.result_ttl_s
        self._expiry.append((record.expires_at, record.job_id))

    def _evict_expired_locked(self) -> int:
        """Drop every expired terminal record; returns how many."""
        now = time.monotonic()
        evicted = 0
        while self._expiry and self._expiry[0][0] <= now:
            del self._jobs[self._expiry.popleft()[1]]
            evicted += 1
        return evicted

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop admission, run the queue dry, stop the workers.

        Returns True when everything queued and running finished within
        ``timeout_s`` (None = wait forever). Idempotent; submissions
        after (or during) a drain are rejected with reason
        ``"draining"``."""
        with obs.span("service.drain") as sp:
            deadline = None if timeout_s is None else time.monotonic() + timeout_s
            with self._cond:
                self._accepting = False
                self._cond.notify_all()
                while self._queue or self._running:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        sp.set_attr("drained", False)
                        return False
                    self._cond.wait(timeout=0.1 if remaining is None else min(0.1, remaining))
                self._stopped = True
                self._cond.notify_all()
            for worker in self._workers:
                worker.join(timeout=5.0)
            drained = all(not w.is_alive() for w in self._workers)
            sp.set_attr("drained", drained)
            log_event(_log, logging.DEBUG, "service.drained", complete=drained)
            return drained

    def shutdown(self, timeout_s: float | None = None) -> bool:
        """Drain, then close the executor (build process and engine pool)."""
        drained = self.drain(timeout_s)
        self.executor.close()
        return drained


def _note_evicted(evicted: int) -> None:
    """The ``service.evict`` mark; call it after releasing the lock."""
    if evicted and obs.enabled():
        obs.emit("service.evict", time.time(), 0.0, evicted=evicted)

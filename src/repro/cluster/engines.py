"""Execution engines: run partitioned workloads on the emulated cluster.

Every engine runs a job the same way — :meth:`ExecutionEngine.run_job`
is defined once — in three steps:

- **measure** (``_execute_partitions``): run the workload on each
  partition as it was staged (a slice of the dataset's encoding, an
  :class:`~repro.kvstore.codec.EncodedDataset`, goes into
  ``workload.run`` undecoded; the workload reads it as it needs) and
  price the measurement on the assigned node. An engine states only
  those two halves — ``_measure`` (one raw figure per partition) and
  ``_runtime`` (a raw figure priced on one node) — so a job and a profiling probe
  (:meth:`ExecutionEngine.profile_samples`, the planner's whole probe
  ladder measured in one ``_measure`` and priced on every node) cannot
  disagree on what a node costs.
  :class:`SimulatedEngine` runs in-process and derives runtime
  deterministically as ``overhead/speed + work_units/(unit_rate·speed)``
  — the busy-loop emulation in closed form, exactly reproducible.
  :class:`ProcessPoolEngine` executes on a real, persistent
  ``ProcessPoolExecutor`` (created lazily, reused across jobs and
  profiling probes) and scales the worker's CPU time of each task by
  the node's speed factor, exercising genuine parallel execution
  (pickling, process startup, concurrent scheduling) while billing
  only the work, not whatever else shared the box.
- **schedule** (``_schedule``): place the measured work on per-node
  timelines as events ``(partition_id, node_id, start_s, runtime_s,
  result)``. The base policy queues a node's partitions back to back
  (as a slow node with two chunks would);
  :class:`~repro.cluster.workstealing.WorkStealingScheduler` lets idle
  nodes steal chunks.
- **account** (:func:`account_job`): turn the events into
  :class:`TaskResult` s — energy and dirty energy billed against each
  node's green trace over the task's interval — merge the outputs and
  sum the :class:`JobResult`; :func:`record_job_telemetry` then emits
  the task spans (every ``repro_*`` series is a fold of them, see
  :mod:`repro.obs.fold`).
"""

from __future__ import annotations

import abc
import logging
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Sequence

import repro.obs as obs
from repro.cluster.cluster import Cluster
from repro.cluster.dataplane import DataPlaneStats
from repro.cluster.node import Node
from repro.kvstore.codec import EncodedDataset
from repro.obs.energy import task_energy_attrs
from repro.obs.log import get_logger, log_event
from repro.obs.trace import NOOP_SPAN, Tracer
from repro.workloads.base import Workload, WorkloadResult

_log = get_logger(__name__)


@dataclass
class TaskResult:
    """One partition's execution record."""

    partition_id: int
    node_id: int
    start_s: float
    runtime_s: float
    work_units: float
    dirty_energy_j: float
    energy_j: float
    output: Any = None
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.runtime_s


@dataclass
class JobResult:
    """Aggregate outcome of one distributed job."""

    tasks: list[TaskResult]
    makespan_s: float
    total_dirty_energy_j: float
    total_energy_j: float
    merged_output: Any = None


def record_job_telemetry(job: JobResult, job_span, wall0: float, workload: str) -> None:
    """Emit one ``task.execute`` span per task (on the job's node-local
    timeline, anchored at the job's wall start, with its offset there
    as ``queue_wait_s``) and set the job's books on ``job_span``. Sums
    of the span energy attrs reproduce the job totals exactly — the
    spans carry the same floats the :class:`JobResult` summed. Callers
    must check ``obs.enabled()``.

    ``workload`` tags each span with the workload name: the live
    estimator keeps one decayed regression per ``(node, workload)``,
    so each workload's evidence ages only with its own samples, and
    pools them when ``/live`` reads them.
    """
    tracer = obs.get_tracer()
    for task in job.tasks:
        tracer.emit(
            "task.execute",
            start_s=wall0 + task.start_s,
            duration_s=task.runtime_s,
            parent_id=job_span.span_id,
            **task_energy_attrs(task),
            queue_wait_s=task.start_s,
            workload=workload,
        )
    job_span.set_attr("makespan_s", job.makespan_s)
    job_span.set_attr("total_energy_j", job.total_energy_j)
    job_span.set_attr("total_dirty_energy_j", job.total_dirty_energy_j)


def _validate_assignment(cluster: Cluster, partitions: Sequence, assignment: Sequence[int]) -> None:
    if len(partitions) != len(assignment):
        raise ValueError("one node assignment required per partition")
    if len(partitions) == 0:
        raise ValueError("job needs at least one partition")
    for node in assignment:
        if not 0 <= node < cluster.num_nodes:
            raise ValueError(f"assignment references unknown node {node}")


#: One placed piece of work: ``(partition_id, node_id, start_s,
#: runtime_s, result)``.
TimelineEvent = tuple[int, int, float, float, WorkloadResult]


def account_job(
    cluster: Cluster,
    workload: Workload,
    events: Sequence[TimelineEvent],
    start_offset_s: float,
) -> JobResult:
    """Turn a placed timeline into the job's books.

    Each event becomes one :class:`TaskResult` billed by its node
    (:meth:`~repro.cluster.node.Node.bill`) over the window
    ``start_offset_s + start_s`` of the node's green trace. The
    makespan is the latest end time; outputs merge in event order.
    """
    tasks: list[TaskResult] = []
    for pid, node_id, start, runtime, result in events:
        energy, dirty = cluster[node_id].bill(runtime, start_offset_s + start)
        tasks.append(
            TaskResult(
                partition_id=pid,
                node_id=node_id,
                start_s=start,
                runtime_s=runtime,
                work_units=result.work_units,
                dirty_energy_j=dirty,
                energy_j=energy,
                output=result.output,
                stats=result.stats,
            )
        )
    return JobResult(
        tasks=tasks,
        makespan_s=max((t.end_s for t in tasks), default=0.0),
        total_dirty_energy_j=sum(t.dirty_energy_j for t in tasks),
        total_energy_j=sum(t.energy_j for t in tasks),
        merged_output=workload.merge([result for *_, result in events]),
    )


class ExecutionEngine(abc.ABC):
    """Common engine machinery: scheduling, energy accounting, merging."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    @abc.abstractmethod
    def _measure(
        self, workload: Workload, partitions: Sequence[Sequence[Any]]
    ) -> list[tuple[WorkloadResult, float]]:
        """Run the workload once per partition: ``(result, raw)`` in
        order, where ``raw`` is what :meth:`_runtime` prices."""

    @abc.abstractmethod
    def _runtime(self, node: Node, raw: float) -> float:
        """Seconds on ``node`` of a task whose measurement was ``raw``."""

    def _execute_partitions(
        self, workload: Workload, partitions: Sequence[Sequence[Any]], assignment: Sequence[int]
    ) -> list[tuple[WorkloadResult, float]]:
        """``(result, runtime_s)`` per partition on its assigned node."""
        measured = self._measure(workload, partitions)
        return [
            (result, self._runtime(self.cluster[node_id], raw))
            for (result, raw), node_id in zip(measured, assignment)
        ]

    def profile(self, workload: Workload, records: Sequence[Any], node_id: int) -> float:
        """Runtime of one sample at ``node_id``. The planner probes with
        :meth:`profile_samples`; the end-to-end benchmark's harness
        forks a fresh pool with this call."""
        ((_, runtime),) = self._execute_partitions(workload, [records], [node_id])
        return runtime

    def profile_samples(
        self, workload: Workload, samples: Sequence[Sequence[Any]]
    ) -> list[list[float]]:
        """The probe ladder: ``times[j][node]`` is sample ``j``'s runtime
        on each node (node-id order). Every sample is measured once, all
        in one :meth:`_measure`, and priced on every node."""
        with obs.span(
            "engine.profile_samples",
            engine=type(self).__name__,
            nodes=self.cluster.num_nodes,
            samples=len(samples),
            records=sum(len(s) for s in samples),
        ):
            measured = self._measure(workload, samples)
            return [[self._runtime(node, raw) for node in self.cluster] for _, raw in measured]

    def profile_all_nodes(
        self, workload: Workload, records: Sequence[Any]
    ) -> list[float]:
        """Runtime of one sample on *every* node (node-id order): the
        one-sample view of :meth:`profile_samples`."""
        with obs.span(
            "engine.profile_all_nodes",
            engine=type(self).__name__,
            nodes=self.cluster.num_nodes,
            records=len(records),
        ):
            ((_, raw),) = self._measure(workload, [records])
            return [self._runtime(node, raw) for node in self.cluster]

    def _schedule(
        self,
        workload: Workload,
        partitions: Sequence[Sequence[Any]],
        assignment: Sequence[int],
        job_span,
        wall0: float,
    ) -> list[TimelineEvent]:
        """Measure the partitions and place them on per-node timelines.

        Base policy: every partition runs on its assigned node, a
        node's partitions back to back from t=0. Overrides may tag
        ``job_span`` and emit marks anchored at ``wall0``.
        """
        executed = self._execute_partitions(workload, partitions, assignment)
        events: list[TimelineEvent] = []
        clock: dict[int, float] = {}
        for pid, ((result, runtime), node_id) in enumerate(zip(executed, assignment)):
            start = clock.get(node_id, 0.0)
            events.append((pid, node_id, start, runtime, result))
            clock[node_id] = start + runtime
        return events

    def run_job(
        self,
        workload: Workload,
        partitions: Sequence[Sequence[Any]],
        assignment: Sequence[int] | None = None,
        start_offset_s: float = 0.0,
    ) -> JobResult:
        """Execute one partition per assignment slot and aggregate.

        ``assignment=None`` maps partition ``i`` to node
        ``i % num_nodes``. All nodes start at ``start_offset_s`` (global
        barrier semantics — pass the previous phase's makespan so
        energy is billed against the right window of each node's green
        trace). Reported start/end times and the makespan are relative
        to the offset.
        """
        if assignment is None:
            assignment = [i % self.cluster.num_nodes for i in range(len(partitions))]
        if start_offset_s < 0:
            raise ValueError("start_offset_s must be non-negative")
        _validate_assignment(self.cluster, partitions, assignment)

        wall0 = time.time()
        with obs.span(
            "engine.run_job",
            engine=type(self).__name__,
            workload=workload.name,
            partitions=len(partitions),
            nodes=self.cluster.num_nodes,
        ) as job_span:
            events = self._schedule(workload, partitions, assignment, job_span, wall0)
            job = account_job(self.cluster, workload, events, start_offset_s)
            if obs.enabled():
                record_job_telemetry(job, job_span, wall0, workload.name)
            return job


class SimulatedEngine(ExecutionEngine):
    """Deterministic engine: runtime = overhead/speed + work/(rate·speed).

    Parameters
    ----------
    unit_rate:
        Work units per second a speed-1 node processes. Calibrates the
        absolute time scale only; strategy comparisons are invariant.
    """

    def __init__(self, cluster: Cluster, unit_rate: float = 5e4):
        super().__init__(cluster)
        if unit_rate <= 0:
            raise ValueError("unit_rate must be positive")
        self.unit_rate = unit_rate

    def _measure(self, workload, partitions):
        results = [workload.run(partition) for partition in partitions]
        return [(result, result.work_units) for result in results]

    def _runtime(self, node, raw):
        return node.runtime_for_work(raw, self.unit_rate)


def _pool_worker_init() -> None:
    """Pool-worker initializer: leave Ctrl-C to the parent.

    A terminal delivers SIGINT to the whole foreground process group; a
    worker interrupted mid ``call_queue.get()`` prints a traceback and
    can wedge the queue into a BrokenProcessPool. Workers ignore the
    signal so only the parent reacts and drains via :meth:`shutdown`
    (which still SIGTERMs workers if they hang).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pool_task(
    args: tuple[Workload, Sequence[Any] | EncodedDataset, bool]
) -> tuple[WorkloadResult, float, tuple]:
    # The executor unpickled the partition before this function started.
    # A staged partition goes into workload.run as the encoding's slice:
    # reading it, as columns or as records, is part of the billed work.
    workload, partition, trace = args
    tracer = Tracer() if trace else None
    span = tracer.span("worker.run", items=len(partition)) if tracer is not None else NOOP_SPAN
    # Billed on the worker's CPU clock (every thread of this process):
    # what the work cost, not how long it waited for a core beside
    # another worker or a busy parent. The span keeps the wall time.
    with span:
        c0 = time.process_time()
        result = workload.run(partition)
        cpu = time.process_time() - c0
    # Worker spans ship back through the normal task return path; the
    # parent re-parents them under the span that launched the job.
    return result, cpu, tuple(tracer.finished_spans()) if tracer is not None else ()


class ProcessPoolEngine(ExecutionEngine):
    """Real parallel engine: worker CPU time scaled by each node's speed
    factor.

    Partition workloads run concurrently in worker processes (capped at
    ``max_workers``); the CPU time a worker spent in each task's
    ``workload.run`` is divided by the assigned node's speed factor and
    the per-task overhead added, emulating the busy-loop slowdown
    without burning cores on spin loops. CPU time, not wall time: two
    tasks sharing a core, or a busy parent process, would otherwise
    bill each other's waits, so a probe's price and a job's bill would
    depend on what ran beside them.

    The worker pool is **persistent**: it is created lazily on the
    first job and reused by every subsequent :meth:`run_job` /
    :meth:`profile_samples` call, so process fork/spawn cost is paid
    once per engine, not once per job. A worker's first run of a
    workload kind costs more than its later ones, so the first time a
    pool meets a kind it runs that call's smallest partition once per
    worker, unmeasured, before timing anything (see :meth:`_warm`). Use
    the engine as a context manager, or call :meth:`shutdown`, to
    release the workers deterministically; a garbage-collected engine
    tears its pool down without waiting.

    A partition rides in its task tuple, pickled with the task: a
    plain record list, or a staged
    :class:`~repro.kvstore.codec.EncodedDataset` slice (two flat
    arrays), which the worker hands to ``workload.run`` as it arrived.
    Tasks go out largest first so the workers finish together.
    """

    def __init__(self, cluster: Cluster, max_workers: int | None = None):
        super().__init__(cluster)
        self.max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None
        self._pools_created = 0
        # Serializes pool creation against teardown and counts in-flight
        # pool jobs so shutdown(wait=True) drains them before it tears
        # the pool down.
        self._lifecycle = threading.Condition()
        self._inflight = 0
        # Workload kinds the current pool's workers have run (see _warm).
        self._warmed: set[str] = set()

    @property
    def pools_created(self) -> int:
        """How many executors this engine has ever constructed.

        Stays at 1 across any number of jobs unless the pool broke (a
        worker died) or :meth:`shutdown` was followed by more work.
        """
        with self._lifecycle:
            return self._pools_created

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lifecycle:
            created = self._pool is None
            if created:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_pool_worker_init,
                )
                self._pools_created += 1
                self._warmed.clear()
                log_event(
                    _log, logging.DEBUG, "engine.pool.created",
                    total=self._pools_created, max_workers=self.max_workers,
                )
            pool = self._pool
        if created and obs.enabled():
            obs.emit("engine.pool.created", time.time(), 0.0, max_workers=self.max_workers)
        return pool

    @property
    def dataplane_stats(self) -> DataPlaneStats:
        """All zeros: partitions ride in the task tuple (see
        :class:`~repro.cluster.dataplane.DataPlaneStats`)."""
        return DataPlaneStats()

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker processes. Idempotent; the next job after
        a shutdown transparently builds a fresh pool.

        With ``wait=True`` (the default) the call **drains first**: it
        blocks until every in-flight :meth:`run_job` / :meth:`profile_samples`
        on other threads has finished, so concurrent callers never see
        their pool torn down mid-map. ``wait=False`` tears down
        immediately (interpreter exit).
        """
        lifecycle = getattr(self, "_lifecycle", None)
        if lifecycle is None:
            # __init__ raised before the lifecycle existed; nothing to free.
            return
        with lifecycle:
            if wait:
                while self._inflight > 0:
                    lifecycle.wait()
            # Detach the pool before tearing it down so a failure (or a
            # re-entrant call) can never double-release.
            pool, self._pool = self._pool, None
        if pool is not None:
            log_event(_log, logging.DEBUG, "engine.shutdown", wait=wait)
            pool.shutdown(wait=wait)

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __del__(self) -> None:
        # The collector runs finalizers wherever it fires, under other
        # objects' locks too, so an engine already shut down takes no
        # lock here (nothing else can reach it any more).
        if getattr(self, "_pool", None) is None:
            return
        # Interpreter teardown may have already dismantled the modules
        # shutdown() needs (ImportError/TypeError/AttributeError from
        # half-dead internals); a dying engine must not raise — but it
        # leaves a debug record behind when logging still works.
        try:
            self.shutdown(wait=False)
        except BaseException as exc:
            try:
                log_event(
                    _log, logging.DEBUG, "engine.del.shutdown_failed",
                    error=type(exc).__name__,
                )
            except BaseException:  # repro: noqa[SILENT-EXCEPT] — logging itself is gone this deep into interpreter teardown
                pass

    def _measure(self, workload, partitions):
        # Every pool round-trip is bracketed by the in-flight counter so
        # a concurrent shutdown(wait=True) drains us first.
        with self._lifecycle:
            self._inflight += 1
        try:
            return self._map_tasks(workload, partitions)
        finally:
            with self._lifecycle:
                self._inflight -= 1
                self._lifecycle.notify_all()

    def _runtime(self, node, raw):
        return node.task_overhead_s / node.speed_factor + raw / node.speed_factor

    def _warm(self, pool: ProcessPoolExecutor, task: tuple, workers: int) -> None:
        """Run ``task`` once per worker, unmeasured, the first time this
        pool meets the task's workload kind.

        A worker's first run of a kind costs more than its later ones
        (its heap and caches grow to the kind's working set). Left in,
        that cost lands on whatever reaches each worker first: for the
        progressive sampler, its smallest probes, which flattens the
        fitted slope and can idle a node the plan needs.
        """
        name = task[0].name
        with self._lifecycle:
            if name in self._warmed:
                return
            self._warmed.add(name)
        list(pool.map(_pool_task, [task] * workers))

    def _map_tasks(
        self, workload: Workload, partitions: Sequence[Sequence[Any]]
    ) -> list[tuple[WorkloadResult, float]]:
        """``(result, CPU seconds of workload.run)`` per partition.

        Tasks go out largest first, so the last task to start is the
        shortest and the workers finish together; results come back in
        partition order.
        """
        pool = self._ensure_pool()
        workers = self.max_workers or os.cpu_count() or 1
        # Hand each worker a few tasks per round-trip: one pickle per
        # chunk instead of one per partition.
        chunksize = max(1, len(partitions) // (4 * workers))
        # The tracing flag rides in the task tuple, so toggling obs
        # needs no pool restart (workers may predate enable()).
        trace = obs.enabled()
        # Workers must see a real list or a staged slice.
        parts = [
            p if isinstance(p, (list, EncodedDataset)) else list(p) for p in partitions
        ]
        order = sorted(range(len(parts)), key=lambda i: len(parts[i]), reverse=True)
        tasks = [(workload, parts[i], trace) for i in order]
        try:
            smallest = min(range(len(parts)), key=lambda i: len(parts[i]))
            self._warm(pool, (workload, parts[smallest], False), workers)
            raw = [None] * len(tasks)
            for i, task_out in zip(order, pool.map(_pool_task, tasks, chunksize=chunksize)):
                raw[i] = task_out
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; discard it so the
            # next job starts clean, then surface the failure. Detach it
            # only if it is still the engine's pool: another thread may
            # already run on a fresh one.
            log_event(_log, logging.DEBUG, "engine.pool.broken", tasks=len(tasks))
            with self._lifecycle:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=False)
            raise
        out = []
        tracer = obs.get_tracer() if obs.enabled() else None
        parent = tracer.current_span_id() if tracer is not None else None
        for result, cpu, worker_spans in raw:
            if tracer is not None and worker_spans:
                tracer.adopt(worker_spans, parent_id=parent)
            out.append((result, cpu))
        return out

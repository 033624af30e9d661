"""The four workloads: op lists, set-up, and the timed segments.

Op counts are literals frozen for a ``spec.RUN_SECONDS`` window on the
2-vCPU reference box and scale linearly with ``--seconds``, so two
commits always do identical work. ``--seed`` drives dataset seeds, job
order and arrival times; the program only ever sees generated inputs.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import ParetoPartitioner, Strategy
from repro.data import Dataset, load_dataset
from repro.service import (
    JobManager,
    PartitionService,
    ServiceClient,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.service.executor import ScenarioExecutor

from . import harness
from .harness import KINDS, Kind
from .spec import RUN_SECONDS, WORKLOADS
from .tracing import SpanRecorder

# Frozen op counts for a RUN_SECONDS window (see README for today's rates).
COLD_ROUNDS = 9  # × 4 kinds, each op prepare + execute on a fresh dataset
WARM_ROUNDS = 6  # × (4 kinds × 3 strategies + 4 budget plans)
STEADY_ROUNDS = 5  # × 8 warm specs, open loop over RUN_SECONDS: 2.5 jobs/s
SATURATE_ROUNDS = 9  # × 8 warm specs, closed loop, plus the cold jobs
COLD_EVERY = 15  # svc-saturate: every 15th job is first-of-scenario

_log = logging.getLogger(__name__)

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
OUTSTANDING = 4
POLL_S = 0.025
JOB_TIMEOUT_S = 60.0
SERVICE_ALPHAS = (1.0, None)


@dataclass(frozen=True)
class Op:
    """One timed operation. ``kind`` is the latency line it reports
    under (a job kind, ``budget-plan`` or ``cold``); ``job`` the job
    kind it runs."""

    index: int
    kind: str
    job: str
    alpha: float | None = None
    strategy: int = 1  # index into Kind.strategies(): 0 Stratified, 1 Het-Aware, 2 Het-Energy
    data_seed: int = 0
    due_s: float = 0.0

    @property
    def group(self) -> str:
        """The population this op's latency is a sample of: its kind
        under one strategy (see ``harness.kind_latencies``)."""
        return f"{self.kind}/{self.strategy}/{self.alpha}"


@dataclass
class Sample:
    op: Op
    latency_s: float
    ok: bool
    error: str = ""
    #: plan sizes, energies and outputs, for the checks after the window
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class Segment:
    """One timed stretch of ops (the whole window, or half of it in a
    traced run)."""

    samples: list[Sample]
    wall_s: float
    cpu_s: float
    lateness_s: list[float] = field(default_factory=list)
    job_ops: dict[str, int] = field(default_factory=dict)  # service job id → op index
    stats: dict[str, float] = field(default_factory=dict)  # counter deltas over the segment


def _count(literal: int, seconds: float) -> int:
    return max(1, round(literal * seconds / RUN_SECONDS))


def build_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    """The op sequence (and arrival schedule) for one segment — a pure
    function of its arguments."""
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(workload)])
    names = list(KINDS)
    ops: list[Op] = []
    if workload == "batch-cold":
        for r in range(_count(COLD_ROUNDS, seconds)):
            for j in rng.permutation(len(names)):
                ops.append(
                    Op(len(ops), names[j], names[j], alpha=1.0, data_seed=seed * 1000 + r)
                )
    elif workload == "batch-warm":
        slots = [(n, s) for n in names for s in (0, 1, 2, None)]
        for _ in range(_count(WARM_ROUNDS, seconds)):
            for j in rng.permutation(len(slots)):
                name, strategy = slots[j]
                if strategy is None:
                    ops.append(Op(len(ops), "budget-plan", name))
                else:
                    ops.append(Op(len(ops), name, name, strategy=strategy))
    elif workload == "svc-steady":
        specs = [(name, a) for name in names for a in SERVICE_ALPHAS]
        rounds = _count(STEADY_ROUNDS, seconds)
        # Open loop on a seeded schedule: gaps uniform on 0.5-1.5 × the
        # mean gap, rescaled so every seed spans the same window.
        # Exponential gaps at a useful load put the median job on the
        # edge between running alone and sharing the pool, and the p50
        # then follows the seed's bunching (25 % between seeds).
        for _ in range(rounds):
            for j in rng.permutation(len(specs)):
                name, alpha = specs[j]
                ops.append(Op(len(ops), name, name, alpha=alpha))
        gaps = rng.uniform(0.5, 1.5, size=len(ops))
        dues = np.cumsum(gaps) - gaps[0]
        dues *= seconds * (len(ops) - 1) / len(ops) / dues[-1]
        ops = [dataclasses.replace(op, due_s=float(d)) for op, d in zip(ops, dues)]
    elif workload == "svc-saturate":
        specs = [(name, a) for name in names for a in SERVICE_ALPHAS]
        colds = 0
        for _ in range(_count(SATURATE_ROUNDS, seconds)):
            for j in rng.permutation(len(specs)):
                if len(ops) % COLD_EVERY == COLD_EVERY - 1:
                    name = names[colds % len(names)]
                    colds += 1
                    seed_of_scenario = 10_000 + seed * 100 + colds
                    ops.append(Op(len(ops), "cold", name, alpha=1.0, data_seed=seed_of_scenario))
                name, alpha = specs[j]
                ops.append(Op(len(ops), name, name, alpha=alpha))
    return ops


# -- library path -----------------------------------------------------------


class BatchContext:
    """Set-up and timed segments for ``batch-cold`` / ``batch-warm``:
    one caller, closed loop, straight into ``ParetoPartitioner``."""

    def __init__(
        self, workload: str, seed: int, ops: list[Op], scale: float, probe: harness.SpeedProbe
    ):
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.plan_retries = 0
        self.engine = harness.start_engine()
        self.datasets: dict[tuple[str, int], Dataset] = {}
        self.framework: dict[str, ParetoPartitioner] = {}
        self.prepared: dict[str, Any] = {}
        self.budgets: dict[str, float] = {}
        try:
            if workload == "batch-cold":
                for op in ops:
                    kind = KINDS[op.job]
                    self.datasets[(op.job, op.data_seed)] = load_dataset(
                        kind.dataset, size_scale=kind.cold_scale * scale, seed=op.data_seed
                    )
            else:
                for kind in KINDS.values():
                    self._prepare_warm(kind, scale)
        except BaseException:
            self.engine.shutdown()  # a failed set-up leaves no worker behind
            raise

    def _framework(self, dataset_kind: str, seed: int) -> ParetoPartitioner:
        # Library defaults: 16 strata, stage_via_kv=True.
        return ParetoPartitioner(self.engine, kind=dataset_kind, seed=seed)

    def _prepare_warm(self, kind: Kind, scale: float) -> None:
        dataset = load_dataset(
            kind.dataset, size_scale=kind.size_scale * scale, seed=self.seed
        )
        pp = self._framework(dataset.kind, self.seed)
        het_aware = kind.strategies()[1]
        # Profiling measures wall time, so a scheduling hiccup on one
        # probe can flatten a node's model and collapse the α=1 plan to
        # [N,0,0,0]. A warm run keeps its plan for the whole window, so
        # re-prepare (counted) rather than measure a one-worker job.
        for _ in range(3):
            prepared = pp.prepare(dataset.items, kind.workload())
            if harness.nonempty(pp.plan(prepared, het_aware).sizes) >= harness.MIN_PARTITIONS:
                break
            self.plan_retries += 1
        fastest = pp.plan(prepared, het_aware).predicted_dirty_energy_j
        greenest = pp.plan(prepared, Strategy("greenest", 0.0)).predicted_dirty_energy_j
        self.datasets[(kind.name, self.seed)] = dataset
        self.framework[kind.name] = pp
        self.prepared[kind.name] = prepared
        self.budgets[kind.name] = 0.5 * (fastest + greenest)
        # One execution publishes the Het-Aware partitions and runs every
        # lazy import, so the window measures repeats, not first use.
        kind.execute(pp, dataset.items, het_aware, prepared)

    def _run_op(self, op: Op) -> dict[str, Any]:
        kind = KINDS[op.job]
        if op.kind == "budget-plan":
            pp, prepared = self.framework[op.job], self.prepared[op.job]
            plan = pp.plan_for_budget(prepared, self.budgets[op.job])
            return {
                "sizes": [int(s) for s in plan.sizes],
                "n": prepared.num_items,
                "dirty_j": plan.predicted_dirty_energy_j,
                "budget_j": self.budgets[op.job],
            }
        if self.workload == "batch-cold":
            dataset = self.datasets[(op.job, op.data_seed)]
            pp, prepared = self._framework(dataset.kind, op.data_seed), None
        else:
            dataset = self.datasets[(op.job, self.seed)]
            pp, prepared = self.framework[op.job], self.prepared[op.job]
        items = dataset.items
        strategy = kind.strategies()[op.strategy]
        report = kind.execute(pp, items, strategy, prepared)
        return {
            "sizes": [int(s) for s in report.plan.sizes],
            "n": len(items),
            "alpha": strategy.alpha,
            "energy_j": report.total_energy_j,
            "dirty_j": report.total_dirty_energy_j,
            "output": report.merged_output if kind.mining else None,
            "items": items,
        }

    def run(self, ops: list[Op], recorder: SpanRecorder | None) -> Segment:
        samples: list[Sample] = []
        before = _counters(self.engine)
        cpu0, t0 = harness.cpu_seconds(), time.perf_counter()
        for op in ops:
            if recorder is not None:
                recorder.set_op(op.index)
            start = time.perf_counter()
            try:
                detail = self._run_op(op)
            except Exception as exc:
                # A failed op is a counted failure of the run, not a crash.
                _log.exception("op %d (%s) raised", op.index, op.kind)
                samples.append(
                    Sample(op, time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
                )
                continue
            samples.append(Sample(op, time.perf_counter() - start, True, detail=detail))
            if self.workload == "batch-cold":
                self.probe.sample_inline()  # one busy thread: see harness.SpeedProbe
        wall, cpu = time.perf_counter() - t0, harness.cpu_seconds() - cpu0
        return Segment(samples, wall, cpu, stats=_stat_deltas(self.engine, before))

    def mining_datasets(self) -> dict[str, Any]:
        return {}  # library samples carry their own items and frequent sets

    def close(self) -> dict[str, Any]:
        pools = self.engine.pools_created
        self.engine.shutdown()
        return {"pools_created": pools, "plan_retries": self.plan_retries}


def _counters(engine) -> dict[str, float]:
    """The engine's public counters: dataplane stats and KV round trips."""
    out = {f"dataplane.{k}": v for k, v in dataclasses.asdict(engine.dataplane_stats).items()}
    out["kv.round_trips"] = engine.cluster.kv.total_round_trips()
    return out


def _stat_deltas(engine, before: dict[str, float]) -> dict[str, float]:
    return {k: float(v - before[k]) for k, v in _counters(engine).items()}


# -- service path -----------------------------------------------------------


class ServiceContext:
    """Set-up and timed segments for ``svc-steady`` / ``svc-saturate``:
    a real HTTP service in this process, driven over its client by one
    load-generator thread (the caller's)."""

    def __init__(self, workload: str, seed: int, scale: float):
        self.workload = workload
        self.scale = scale
        self.plan_retries = 0
        engine = harness.start_engine()
        executor = ScenarioExecutor(engine)  # what build_executor assembles
        # Caps sized so that nothing is ever refused: a 429 is a failure here.
        config = ServiceConfig(concurrency=2, max_queue_depth=64, per_tenant_inflight=64)
        manager = JobManager(executor, config)
        server = ServiceHTTPServer(manager, port=0).start()
        self.service = PartitionService(executor=executor, manager=manager, server=server)
        self.client = ServiceClient(self.service.url, timeout_s=30.0)
        #: The scenario seed each kind's warm specs carry.
        self.seeds: dict[str, int] = {}
        try:
            for kind in KINDS.values():
                self._warm(kind, seed)
        except BaseException:
            self.service.close()  # a failed set-up leaves no worker behind
            raise

    def _warm(self, kind: Kind, seed: int) -> None:
        """Run each of the kind's warm specs once, one at a time (the
        profiling probes then run on a quiet box). A degenerate α=1
        plan cannot be re-prepared through the API, so move the kind to
        a fresh scenario seed instead (counted)."""
        for _ in range(3):
            result = self._run_to_end(kind.spec(1.0, seed, self.scale))
            if harness.nonempty(result["plan_sizes"]) >= harness.MIN_PARTITIONS:
                break
            self.plan_retries += 1
            seed += 7919
        self.seeds[kind.name] = seed
        self._run_to_end(kind.spec(None, seed, self.scale))

    def _run_to_end(self, spec: dict[str, Any]) -> dict[str, Any]:
        accepted = self.client.submit(spec)
        if accepted.status != 202:
            raise RuntimeError(f"warm-up submit answered {accepted.status}: {accepted.body}")
        done = self.client.wait(accepted.body["job_id"], timeout_s=JOB_TIMEOUT_S, poll_s=POLL_S)
        if done.status != 200 or done.body["state"] != "SUCCEEDED":
            raise RuntimeError(f"warm-up job ended {done.status}: {done.body}")
        return done.body["result"]

    def _spec(self, op: Op) -> dict[str, Any]:
        kind = KINDS[op.job]
        seed = op.data_seed if op.kind == "cold" else self.seeds[op.job]
        return kind.spec(op.alpha, seed, self.scale)

    def run(self, ops: list[Op], recorder: SpanRecorder | None) -> Segment:
        """Drive one segment. Open loop (``svc-steady``): submit each op
        when due, latency from the due time. Closed loop
        (``svc-saturate``): keep ``OUTSTANDING`` jobs in flight, latency
        from submission. Outstanding jobs are polled round-robin every
        ``POLL_S``."""
        closed = self.workload == "svc-saturate"
        engine = self.service.executor.engine
        before = _counters(engine)
        pending = deque(ops)
        inflight: dict[str, tuple[Op, float]] = {}
        segment = Segment([], 0.0, 0.0)
        cpu0, t0 = harness.cpu_seconds(), time.perf_counter()
        next_poll = t0
        while pending or inflight:
            now = time.perf_counter()
            while pending and (
                len(inflight) < OUTSTANDING if closed else t0 + pending[0].due_s <= now
            ):
                op = pending.popleft()
                due = now if closed else t0 + op.due_s
                if recorder is not None:
                    recorder.set_op(op.index)
                segment.lateness_s.append(time.perf_counter() - due)
                response = self.client.submit(self._spec(op))
                if response.status == 202:
                    job_id = response.body["job_id"]
                    inflight[job_id] = (op, due)
                    segment.job_ops[job_id] = op.index
                else:
                    segment.samples.append(
                        Sample(op, time.perf_counter() - due, False, f"submit {response.status}")
                    )
                now = time.perf_counter()
            if now >= next_poll:
                next_poll = now + POLL_S
                for job_id, (op, due) in list(inflight.items()):
                    if recorder is not None:
                        recorder.set_op(op.index)
                    response = self.client.result(job_id)
                    latency = time.perf_counter() - due
                    if response.status == 409 and latency < JOB_TIMEOUT_S:
                        continue
                    del inflight[job_id]
                    segment.samples.append(_service_sample(op, latency, response))
                if closed and pending and len(inflight) < OUTSTANDING:
                    continue  # a slot freed: submit before sleeping
            wake = next_poll
            if pending and not closed:
                wake = min(wake, t0 + pending[0].due_s)
            time.sleep(max(0.0, wake - time.perf_counter()))
        segment.wall_s = time.perf_counter() - t0
        segment.cpu_s = harness.cpu_seconds() - cpu0
        segment.samples.sort(key=lambda s: s.op.index)
        segment.stats = _stat_deltas(engine, before)
        return segment

    def mining_datasets(self) -> dict[str, Any]:
        """The mining kinds' datasets as the service generated them (the
        HTTP result carries only the size of the frequent set)."""
        return {
            kind.name: load_dataset(
                kind.dataset, size_scale=kind.size_scale * self.scale, seed=self.seeds[kind.name]
            ).items
            for kind in KINDS.values()
            if kind.mining
        }

    def close(self) -> dict[str, Any]:
        executor, manager = self.service.executor, self.service.manager
        stats = manager.stats()
        audit = {
            "pools_created": executor.engine.pools_created,
            "scenarios_prepared": executor.scenarios_prepared,
            "peak_queue_depth": stats["peak_queue_depth"],
            "states": stats["states"],
            "plan_retries": self.plan_retries,
        }
        self.service.close()
        audit["live_segments"] = executor.dataplane_audit()["live_segments"]
        return audit


def _service_sample(op: Op, latency: float, response) -> Sample:
    body = response.body
    if response.status != 200 or body.get("state") != "SUCCEEDED":
        error = f"{response.status} {body.get('state')} {body.get('error')}"
        return Sample(op, latency, False, error)
    result = body["result"]
    return Sample(
        op,
        latency,
        True,
        detail={
            "sizes": result["plan_sizes"],
            "n": None,
            "alpha": result["alpha"],
            "energy_j": result["total_energy_j"],
            "dirty_j": result["total_dirty_energy_j"],
            "frequent": result["quality"].get("frequent"),
        },
    )


def make_context(
    workload: str, seed: int, ops: list[Op], scale: float, probe: harness.SpeedProbe
) -> BatchContext | ServiceContext:
    if workload.startswith("batch-"):
        return BatchContext(workload, seed, ops, scale, probe)
    return ServiceContext(workload, seed, scale)

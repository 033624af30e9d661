"""Executes job specs against one shared engine + prepared-state cache.

The service's whole performance story lives here: every job runs on the
**same** long-lived engine, so

- the :class:`~repro.cluster.engines.ProcessPoolEngine` worker pool is
  forked once for the service lifetime, not once per request;
- the one-time prepare cost (stratify + profile + optimizer) is cached
  per scenario — ``(dataset, size_scale, seed, workload, support)`` —
  and amortized across every job that hits the same scenario, exactly
  the paper's amortization argument applied to sustained traffic.

What the caches hold is columns, not records: a dataset key is its
codec encoding (:class:`~repro.kvstore.codec.EncodedDataset`) and its
stratification, and a scenario is the :class:`PreparedInput` built
from them. The service process never unpickles, encodes or keeps a
record; a job's partitions are gathers of the encoding.

Thread-safe: the manager runs several worker threads over one executor.
``_lock`` guards only two dicts of futures, one per dataset key and one
per scenario key. The first job of a key builds it outside the lock and
later jobs of that key wait on its future, so a cold build never holds
up a job of any other key. The dataset half of a build — generating the
items, encoding and stratifying them — runs in a one-process build
pool, off the service process's interpreter. Engine job execution
relies on the engine's own concurrency guarantees (pool maps are
thread-safe, shutdown drains in-flight jobs).
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, TypeVar

import repro.obs as obs
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ExecutionEngine, ProcessPoolEngine, SimulatedEngine
from repro.core.framework import ParetoPartitioner, PreparedInput
from repro.core.strategies import at_alpha
from repro.data.datasets import load_dataset
from repro.kvstore.codec import EncodedDataset, encode_dataset
from repro.service.jobs import JobSpec, build_workload
from repro.stratify.stratifier import Stratification, Stratifier

__all__ = ["ScenarioExecutor", "build_executor"]

_T = TypeVar("_T")

#: Strata per service scenario (the build process and the partitioner
#: must agree on it).
NUM_STRATA = 8

#: ``(kind, encoded items, stratification)`` of one dataset key.
BuiltDataset = tuple[str, EncodedDataset, Stratification]


def _build_process_init() -> None:
    """Build-pool initializer: fresh obs collectors for the child, and
    Ctrl-C left to the parent (as the engine's pool workers do)."""
    obs.reset_after_fork()
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _build_task(
    key: tuple[str, float, int], trace: bool
) -> tuple[str, EncodedDataset, Stratification, tuple]:
    """Build-pool task: generate a dataset key's items, encode them in
    the codec's columnar form and stratify the encoding.

    A pure function of the key. Returns the built dataset — columns
    only, so the parent unpickles a few arrays, not a record per item —
    and, when ``trace`` is set, its ``stage.generate``,
    ``stage.encode``, ``stage.sketch`` and ``stage.stratify`` spans for
    the parent to adopt.
    """
    name, size_scale, seed = key
    tracer = obs.get_tracer()
    tracer.reset()
    (obs.enable if trace else obs.disable)()
    with obs.span("stage.generate", dataset=name, scale=size_scale) as span:
        dataset = load_dataset(name, size_scale=size_scale, seed=seed)
        span.set_attr("items", len(dataset))
    with obs.span("stage.encode", items=len(dataset), kind=dataset.kind):
        encoded = encode_dataset(dataset.kind, dataset.items)
    stratifier = Stratifier(kind=dataset.kind, num_strata=NUM_STRATA, seed=seed)
    stratification = stratifier.stratify(encoded)
    spans = tuple(tracer.finished_spans()) if trace else ()
    return dataset.kind, encoded, stratification, spans


def _build_pool() -> ProcessPoolExecutor:
    # Fork, not spawn or forkserver: with the modules already imported a
    # fork starts in ~17 ms, the others in ~0.4 s.
    return ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_build_process_init,
    )


class ScenarioExecutor:
    """Runs one :class:`JobSpec` at a time per calling thread, sharing
    engine and prepared state across all of them."""

    def __init__(self, engine: ExecutionEngine):
        self.engine = engine
        self._lock = threading.Lock()
        self._prepared: dict[tuple, Future] = {}
        self._datasets: dict[tuple, Future] = {}
        self._build_pool = _build_pool()
        # Fork the build process now, before the caller starts the
        # manager and HTTP threads.
        self._build_pool.submit(int).result()

    # -- scenario cache -----------------------------------------------------

    def _once(self, table: dict[tuple, Future], key: tuple, build: Callable[[], _T]) -> _T:
        """``build()`` once per key of ``table``. The first caller runs it
        outside the lock; concurrent callers of that key wait on its
        future. A failed build is forgotten, so the next caller retries,
        while the callers already waiting get the same exception."""
        with self._lock:
            future = table.get(key)
            owner = future is None
            if owner:
                future = table[key] = Future()
        if not owner:
            return future.result()
        try:
            value = build()
        except BaseException as exc:
            with self._lock:
                del table[key]
            future.set_exception(exc)
            raise
        future.set_result(value)
        return value

    def _build(self, key: tuple[str, float, int]) -> BuiltDataset:
        with self._lock:
            pool = self._build_pool
        try:
            kind, encoded, stratification, spans = pool.submit(
                _build_task, key, obs.enabled()
            ).result()
        except BrokenProcessPool as exc:
            with self._lock:
                if self._build_pool is pool:
                    self._build_pool = _build_pool()
            pool.shutdown(wait=True)
            raise BrokenProcessPool(
                f"the build process died while building dataset {key}"
            ) from exc
        if spans:
            tracer = obs.get_tracer()
            tracer.adopt(spans, parent_id=tracer.current_span_id())
        return kind, encoded, stratification

    def _dataset_for(self, spec: JobSpec) -> BuiltDataset:
        """The spec's dataset, generated, stratified and encoded once
        per key in the build process."""
        key = (spec.dataset, spec.size_scale, spec.seed)
        return self._once(self._datasets, key, lambda: self._build(key))

    def scenario_key(self, spec: JobSpec) -> tuple:
        return (spec.dataset, spec.size_scale, spec.seed, spec.workload, spec.support)

    def _prepare(self, spec: JobSpec) -> tuple[ParetoPartitioner, PreparedInput]:
        with obs.span(
            "service.prepare",
            dataset=spec.dataset,
            workload=spec.workload,
            scale=spec.size_scale,
        ):
            kind, encoded, stratification = self._dataset_for(spec)
            # No KV hop: it keys a partition by id alone, so concurrent
            # jobs over one cluster would share keys.
            pp = ParetoPartitioner(
                self.engine,
                kind=kind,
                num_strata=NUM_STRATA,
                seed=spec.seed,
                stage_via_kv=False,
            )
            prep = pp.prepare(
                encoded,
                build_workload(spec.workload, spec.support),
                stratification=stratification,
            )
        return pp, prep

    def prepared_for(self, spec: JobSpec) -> tuple[ParetoPartitioner, PreparedInput]:
        """Build (and cache) the framework + prepared state for a spec's
        scenario. The first job of a scenario pays the prepare cost once;
        concurrent first jobs of the *same* scenario wait rather than
        duplicate the work, and jobs of other scenarios do not wait."""
        return self._once(
            self._prepared, self.scenario_key(spec), lambda: self._prepare(spec)
        )

    @property
    def scenarios_prepared(self) -> int:
        with self._lock:
            return sum(future.done() for future in self._prepared.values())

    # -- execution ----------------------------------------------------------

    def run(self, spec: JobSpec) -> dict[str, Any]:
        """Execute one job; returns the JSON-ready result payload."""
        pp, prep = self.prepared_for(spec)
        workload = build_workload(spec.workload, spec.support)
        strategy = at_alpha(spec.alpha, spec.effective_placement)
        report = pp.execute(prep.staged, workload, strategy, prepared=prep)
        return {
            "workload": spec.workload,
            "dataset": spec.dataset,
            "strategy": report.strategy.name,
            "alpha": spec.alpha,
            "makespan_s": report.makespan_s,
            "total_energy_j": report.total_energy_j,
            "total_dirty_energy_j": report.total_dirty_energy_j,
            "green_energy_j": report.total_energy_j - report.total_dirty_energy_j,
            "plan_sizes": [int(s) for s in report.plan.sizes],
            "kv_round_trips": report.kv_round_trips,
            "quality": report.quality(digits=4),
        }

    # -- lifecycle ----------------------------------------------------------

    def dataplane_audit(self) -> dict[str, Any]:
        """``{"live_segments": 0}``: partitions ride in the task tuple,
        so no engine holds a shared segment. The frozen end-to-end
        benchmark's service audit reads it (ROADMAP 5(c))."""
        return {"live_segments": 0}

    def close(self) -> None:
        """Stop the build process, then release the engine (drains
        in-flight pool jobs first)."""
        with self._lock:
            pool = self._build_pool
        pool.shutdown(wait=True)
        shutdown = getattr(self.engine, "shutdown", None)
        if shutdown is not None:
            shutdown(wait=True)


def build_executor(
    engine_kind: str = "process",
    *,
    num_nodes: int = 4,
    max_workers: int | None = None,
    seed: int = 0,
) -> ScenarioExecutor:
    """Standard service executor: a paper cluster plus the chosen engine.

    ``engine_kind="process"`` (default) runs real parallel jobs on the
    persistent pool; ``"simulated"`` gives
    deterministic closed-form runtimes (useful for tests and capacity
    math).
    """
    cluster = paper_cluster(num_nodes, seed=seed)
    if engine_kind == "process":
        engine: ExecutionEngine = ProcessPoolEngine(cluster, max_workers=max_workers)
    elif engine_kind == "simulated":
        engine = SimulatedEngine(cluster)
    else:
        raise ValueError(f"unknown engine kind {engine_kind!r}")
    return ScenarioExecutor(engine)

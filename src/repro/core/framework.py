"""The public API: :class:`ParetoPartitioner` wires the five components.

Typical use::

    from repro.cluster import paper_cluster, SimulatedEngine
    from repro.core import ParetoPartitioner, HET_AWARE
    from repro.data import load_dataset
    from repro.workloads.fpm import AprioriWorkload

    dataset = load_dataset("rcv1")
    cluster = paper_cluster(8)
    engine = SimulatedEngine(cluster)
    pp = ParetoPartitioner(engine, kind=dataset.kind)
    report = pp.execute(dataset.items, AprioriWorkload(0.05), HET_AWARE)
    print(report.makespan_s, report.total_dirty_energy_j)

``prepare`` (stratify + serialize the dataset + profile + build
optimizer) is the one-time cost the paper amortizes over repeated runs;
it can be reused across strategies and α values on the same
dataset/workload pair.

**Staging.** A dataset is encoded once, into the KV codec's columnar
form (:class:`~repro.kvstore.codec.EncodedDataset`), at the start of
``prepare``: the stratifier reads its pivots off that encoding, the
profiling probes and each run's partitions are slices of it (a
vectorised gather per index array), a slice optionally hops through
the KV middleware (``stage_via_kv``: two round trips per partition,
framed into length-prefixed records there and back), and the engine
ships it to the worker, which reads it as columns or decodes it — the
parent process never touches a record after the encode. Phase 2 of a
two-phase workload gathers from ``count_records`` of the encoding,
also computed once in ``prepare``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.cluster.engines import ExecutionEngine, JobResult
from repro.core.budget import CarbonBudgetPlanner
from repro.core.heterogeneity import ProfilingReport, ProgressiveSampler
from repro.core.optimizer import ParetoOptimizer, PartitionPlan
from repro.core.partitioner import (
    random_partitions,
    representative_partitions,
    round_robin_partitions,
    similar_partitions,
)
from repro.core.strategies import Strategy, at_alpha
from repro.kvstore.codec import EncodedDataset, encode_dataset
from repro.stratify.stratifier import Stratification, Stratifier
from repro.workloads.base import Workload
from repro.workloads.fpm.apriori import CandidateCountWorkload, LocalMiningWorkload


@dataclass
class PreparedInput:
    """Cached one-time work: stratification, profiling, optimizer and
    the serialized dataset — columns only, no record. Never mutated
    after ``prepare`` built it, so threads may run jobs over one
    instance concurrently. The one state that grows is the optimizer's
    memo of its front, one entry per ``(N, floor)``, filled
    idempotently: repeat plans and budget plans on one input are
    lookups in it."""

    stratification: Stratification
    profiling: ProfilingReport
    optimizer: ParetoOptimizer
    #: The dataset in the codec's columnar form; partitions are gathers of it.
    staged: EncodedDataset
    #: What phase 2 of a two-phase workload counts against:
    #: ``count_records`` of the whole dataset by the workload it was
    #: prepared for, columnar — ``staged`` itself when that is the
    #: identity.
    counted: EncodedDataset
    #: The ``count_records`` implementation ``counted`` was built with;
    #: a two-phase run checks its workload still has this one.
    counted_by: Callable[..., Sequence[Any]]

    @property
    def num_items(self) -> int:
        return len(self.staged)


@dataclass
class RunReport:
    """Everything one strategy execution produced."""

    strategy: Strategy
    plan: PartitionPlan
    job: JobResult
    kv_round_trips: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        return self.job.makespan_s

    @property
    def total_dirty_energy_j(self) -> float:
        return self.job.total_dirty_energy_j

    @property
    def total_energy_j(self) -> float:
        return self.job.total_energy_j

    @property
    def merged_output(self) -> Any:
        return self.job.merged_output

    def quality(self, digits: int) -> dict[str, Any]:
        """The workload's quality figures for a result row: the mining
        candidate / frequent / false-positive counts of a two-phase
        run, the aggregate ratio of a compression run — rounded once,
        from the exact value, to the ``digits`` the row prints (the
        tables' 3 and the service's 4 are both recorded outputs, and
        rounding 4 → 3 is not rounding to 3)."""
        out = {
            k: self.extra[k]
            for k in ("candidates", "frequent", "false_positives")
            if k in self.extra
        }
        if hasattr(self.merged_output, "ratio"):
            out["compression_ratio"] = round(self.merged_output.ratio, digits)
        return out


def run_two_phase(
    engine: ExecutionEngine,
    workload: LocalMiningWorkload,
    partitions: Sequence[Sequence[Any]],
    count_parts: Sequence[Sequence[Any]] | None = None,
) -> tuple[JobResult, dict[str, Any]]:
    """Savasere's partition algorithm: two jobs separated by a barrier.

    Phase 1 mines every partition locally; the union of the locally
    frequent patterns is a complete candidate set. Phase 2 counts that
    union over ``count_parts`` — the same records as transactions
    (default: the partitions themselves) — and prunes the false
    positives at the global support, so the answer equals central
    mining whatever the partitioning. Returns the combined job (tasks
    of both phases, makespan and energies summed over them, the
    frequent patterns with their counts as merged output) and the
    phase breakdown. The false-positive count is the skew indicator the
    paper highlights: representative partitions produce few, skewed
    partitions many, and phase 2 costs in proportion to the candidates.
    """
    if count_parts is None:
        count_parts = partitions
    with obs.span("stage.execute", partitions=len(partitions), phase="local-mine"):
        local_job = engine.run_job(workload, partitions)
    candidates = local_job.merged_output
    counter = CandidateCountWorkload(
        candidates=sorted(candidates),
        min_support=workload.min_support,
        total_transactions=sum(len(p) for p in partitions),
    )
    # Phase 2 runs after the phase-1 barrier: bill its energy against
    # the later window of each node's green trace.
    with obs.span(
        "stage.execute", partitions=len(count_parts), phase="candidate-count"
    ):
        count_job = engine.run_job(
            counter, count_parts, start_offset_s=local_job.makespan_s
        )
    frequent = count_job.merged_output
    combined = JobResult(
        tasks=local_job.tasks + count_job.tasks,
        makespan_s=local_job.makespan_s + count_job.makespan_s,
        total_dirty_energy_j=local_job.total_dirty_energy_j
        + count_job.total_dirty_energy_j,
        total_energy_j=local_job.total_energy_j + count_job.total_energy_j,
        merged_output=frequent,
    )
    return combined, {
        "candidates": len(candidates),
        "frequent": len(frequent),
        "false_positives": len(candidates) - len(frequent),
        "local_makespan_s": local_job.makespan_s,
        "count_makespan_s": count_job.makespan_s,
    }


@dataclass
class ParetoPartitioner:
    """Heterogeneity- and energy-aware partitioning framework.

    Parameters
    ----------
    engine:
        Execution engine over the target cluster (profiling and the
        final job run on the same engine).
    kind:
        Dataset domain for the stratifier
        (``"tree" | "graph" | "text" | "set"``).
    num_strata:
        Strata the stratifier forms (see :class:`Stratifier`; sketch
        length and centre width are its defaults).
    stage_via_kv:
        Round-trip final partitions through the KV middleware before
        execution, as the paper's implementation does.
    """

    engine: ExecutionEngine
    kind: str
    num_strata: int = 16
    stage_via_kv: bool = True
    seed: int = 0

    def stratifier(self) -> Stratifier:
        return Stratifier(kind=self.kind, num_strata=self.num_strata, seed=self.seed)

    # -- pipeline stages ---------------------------------------------------

    def prepare(
        self,
        items: Sequence[Any] | EncodedDataset,
        workload: Workload,
        stratification: Stratification | None = None,
    ) -> PreparedInput:
        """Encode, stratify, profile and build the optimizer (the
        one-time cost).

        ``items`` is the dataset's records, or the dataset already
        encoded (``encode_dataset`` with this partitioner's ``kind``) —
        the service encodes in a separate process, so it never holds a
        record. Records are encoded first, and every stage reads that
        one encoding. Pass a precomputed ``stratification`` (from
        :meth:`stratifier`'s ``stratify`` on the same dataset) to skip
        stratifying. The prepared input keeps the encoding only.
        """
        staged = items if isinstance(items, EncodedDataset) else None
        if staged is not None and staged.kind != self.kind:
            raise ValueError(f"dataset encoded as {staged.kind!r}, not {self.kind!r}")
        n = len(items)
        if stratification is not None and stratification.num_items != n:
            raise ValueError(
                f"stratification labels {stratification.num_items} items, not {n}"
            )
        with obs.span("pipeline.prepare", items=n, kind=self.kind):
            if staged is None:
                staged = encode_dataset(self.kind, items)
            if stratification is None:
                stratification = self.stratifier().stratify(staged)
            sampler = ProgressiveSampler(engine=self.engine, seed=self.seed)
            profiling = sampler.profile(workload, staged, stratification)
            dirty = self.engine.cluster.dirty_power_coefficients()
            optimizer = ParetoOptimizer(models=profiling.models, dirty_coeffs=dirty)
            counted = staged
            if workload.two_phase and type(workload).count_records is not Workload.count_records:
                transactions = workload.count_records(staged)
                if transactions is not staged:
                    counted = encode_dataset("set", transactions)
        return PreparedInput(
            stratification=stratification,
            profiling=profiling,
            optimizer=optimizer,
            staged=staged,
            counted=counted,
            counted_by=type(workload).count_records,
        )

    def _min_items(self, prepared: PreparedInput) -> int:
        """The per-partition floor both planners apply: never plan a
        partition smaller than the smallest sample the time model was
        fitted on (nor than an equal split)."""
        return min(
            min(prepared.profiling.sample_sizes),
            prepared.num_items // prepared.optimizer.num_partitions,
        )

    def plan(self, prepared: PreparedInput, strategy: Strategy) -> PartitionPlan:
        """Partition sizes for a strategy: α's front vertex, or equal."""
        n = prepared.num_items
        with obs.span(
            "stage.optimize", items=n, strategy=strategy.name, alpha=strategy.alpha
        ) as sp:
            if strategy.alpha is None:
                plan = prepared.optimizer.equal_split_plan(n)
            else:
                plan = prepared.optimizer.solve(
                    n, strategy.alpha, min_items=self._min_items(prepared)
                )
            sp.set_attr("sizes", [int(s) for s in plan.sizes])
            return plan

    def place(
        self,
        prepared: PreparedInput,
        strategy: Strategy,
        plan: PartitionPlan,
    ) -> list[np.ndarray]:
        """Index arrays per partition, per the strategy's placement."""
        rng = np.random.default_rng(self.seed + 17)
        sizes = plan.sizes
        if strategy.placement == "representative":
            return representative_partitions(prepared.stratification, sizes, rng)
        if strategy.placement == "similar":
            return similar_partitions(prepared.stratification, sizes)
        if strategy.placement == "random":
            return random_partitions(prepared.num_items, sizes, rng)
        return round_robin_partitions(prepared.num_items, plan.num_partitions)

    def _materialize(
        self, prepared: PreparedInput, indices: list[np.ndarray]
    ) -> tuple[list[EncodedDataset], int]:
        """Slice each index array out of the staged encoding; with
        ``stage_via_kv`` every slice then makes the hop through its
        node's KV store. Returns the partitions and this job's round
        trips (the client's staging lock keeps other jobs out of both)."""
        partitions = [prepared.staged.gather(idx) for idx in indices]
        round_trips = 0
        if self.stage_via_kv:
            kv = self.engine.cluster.kv
            with kv.staging_lock:
                before = kv.total_round_trips()
                for pid, part in enumerate(partitions):
                    node = pid % self.engine.cluster.num_nodes
                    kv.put_partition(node, pid, part)
                    partitions[pid] = kv.get_partition(node, pid)
                round_trips = kv.total_round_trips() - before
        return partitions, round_trips

    def measure_frontier(
        self,
        items: Sequence[Any],
        workload: Workload,
        alphas: Sequence[float],
        placement: str = "representative",
        prepared: PreparedInput | None = None,
    ) -> list[tuple[float, RunReport]]:
        """Execute the α sweep and return measured ``(α, report)`` pairs.

        The paper's Figure-5 primitive as a library call: one
        preparation pass, one execution per α (two-phase when
        ``workload.two_phase``), in the given order. Feed the resulting
        ``(makespan, dirty energy)`` pairs to
        :func:`repro.core.pareto.pareto_front` or
        :func:`repro.bench.plotting.ascii_scatter`.
        """
        if not alphas:
            raise ValueError("need at least one alpha")
        if prepared is None:
            prepared = self.prepare(items, workload)
        out: list[tuple[float, RunReport]] = []
        for alpha in alphas:
            strategy = at_alpha(alpha, placement)
            out.append((alpha, self.execute(items, workload, strategy, prepared=prepared)))
        return out

    def plan_for_budget(
        self, prepared: PreparedInput, max_dirty_energy_j: float
    ) -> PartitionPlan:
        """The fastest plan whose predicted dirty energy fits a budget
        (Section III-B's provider carbon budget, inverted).

        Raises :class:`~repro.core.budget.BudgetInfeasibleError` when
        even the greenest plan overdraws.
        """
        planner = CarbonBudgetPlanner(prepared.optimizer)
        return planner.plan(
            prepared.num_items, max_dirty_energy_j, min_items=self._min_items(prepared)
        )

    # -- end-to-end execution -------------------------------------------------

    def execute(
        self,
        items: Sequence[Any],
        workload: Workload,
        strategy: Strategy,
        prepared: PreparedInput | None = None,
    ) -> RunReport:
        """Full pipeline: prepare (or reuse), plan, place, stage, run —
        in two barrier-separated phases when ``workload.two_phase``.

        A reused ``prepared`` must come from ``prepare`` with this
        workload (its profile and, for two-phase workloads, its
        ``count_records`` of the dataset are kept there); a two-phase
        workload whose ``count_records`` is a different one raises
        ``ValueError``.
        """
        with obs.span("pipeline.execute", strategy=strategy.name):
            if prepared is None:
                prepared = self.prepare(items, workload)
            return self._run(prepared, workload, strategy)

    def execute_fpm(
        self,
        items: Sequence[Any],
        workload: Workload,
        strategy: Strategy,
        prepared: PreparedInput | None = None,
    ) -> RunReport:
        """Two-phase Savasere execution, for mining workloads only.

        Phase 1 mines locally; phase 2 counts the candidate union for
        global pruning. Reported makespan/energy sum both barrier-
        separated phases, as in the paper's evaluation. As for
        :meth:`execute`, a reused ``prepared`` must have been prepared
        with this workload.
        """
        if not workload.two_phase:
            raise TypeError("execute_fpm requires a local-mining workload")
        if prepared is None:
            prepared = self.prepare(items, workload)
        with obs.span("pipeline.execute_fpm", strategy=strategy.name):
            return self._run(prepared, workload, strategy)

    def _run(
        self, prepared: PreparedInput, workload: Workload, strategy: Strategy
    ) -> RunReport:
        """Plan → place → materialize → run, shared by both entry points."""
        if workload.two_phase and type(workload).count_records is not prepared.counted_by:
            raise ValueError(
                f"prepared input holds {prepared.counted_by.__qualname__} of the "
                f"dataset, not {type(workload).__name__}'s: prepare with the "
                "workload that runs"
            )
        plan = self.plan(prepared, strategy)
        with obs.span(
            "stage.partition", placement=strategy.placement, via_kv=self.stage_via_kv
        ) as sp:
            indices = self.place(prepared, strategy, plan)
            partitions, round_trips = self._materialize(prepared, indices)
            sp.set_attr("items", prepared.num_items)
            sp.set_attr("bytes", sum(p.nbytes for p in partitions))
            sp.set_attr("round_trips", round_trips)
        if not workload.two_phase:
            with obs.span("stage.execute", partitions=len(partitions)):
                job = self.engine.run_job(workload, partitions)
            extra = {}
        else:
            # Phase 2 reads what each node already holds: the staged
            # partitions themselves, or the same records' transactions.
            if prepared.counted is prepared.staged:
                count_parts = partitions
            else:
                count_parts = [prepared.counted.gather(idx) for idx in indices]
            job, extra = run_two_phase(self.engine, workload, partitions, count_parts)
        return RunReport(
            strategy=strategy, plan=plan, job=job, kv_round_trips=round_trips, extra=extra
        )

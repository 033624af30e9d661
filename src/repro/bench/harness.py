"""Generic strategy-comparison runner.

One :class:`StrategyRunner` binds a dataset to a workload — a catalogue
name (:meth:`StrategyRunner.for_workload`) or any factory — and
executes any strategy on any partition count, reusing the prepared
(stratify + profile) state per partition count — the paper's amortized
one-time cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import repro.obs as obs
from repro.obs.log import get_logger, log_event
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.core.framework import ParetoPartitioner, PreparedInput, RunReport
from repro.core.strategies import Strategy
from repro.data.datasets import Dataset, load_dataset
from repro.workloads.base import Workload
from repro.workloads.catalog import WORKLOADS

_log = get_logger(__name__)


@dataclass
class ExperimentRow:
    """One (dataset, workload, partitions, strategy) measurement."""

    dataset: str
    workload: str
    partitions: int
    strategy: str
    alpha: float | None
    makespan_s: float
    dirty_energy_kj: float
    energy_kj: float
    quality: dict[str, Any] = field(default_factory=dict)
    sizes: list[int] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        out = {
            "dataset": self.dataset,
            "workload": self.workload,
            "partitions": self.partitions,
            "strategy": self.strategy,
            "alpha": self.alpha,
            "makespan_s": round(self.makespan_s, 3),
            "dirty_energy_kj": round(self.dirty_energy_kj, 3),
            "energy_kj": round(self.energy_kj, 3),
        }
        out.update(self.quality)
        return out


@dataclass
class StrategyRunner:
    """Runs strategies over one dataset/workload pair.

    Parameters
    ----------
    dataset:
        A loaded :class:`Dataset` (or use :meth:`from_name`).
    workload_factory:
        Zero-argument callable building a fresh workload instance.
    num_strata / unit_rate / seed:
        Stratifier and engine configuration.
    """

    dataset: Dataset
    workload_factory: Callable[[], Workload]
    num_strata: int = 12
    unit_rate: float = 5e4
    seed: int = 0
    _prepared: dict[int, tuple[ParetoPartitioner, PreparedInput]] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def from_name(
        cls,
        dataset_name: str,
        workload_factory: Callable[[], Workload],
        *,
        size_scale: float = 1.0,
        **kwargs,
    ) -> "StrategyRunner":
        return cls(
            dataset=load_dataset(dataset_name, size_scale=size_scale),
            workload_factory=workload_factory,
            **kwargs,
        )

    @classmethod
    def for_workload(
        cls,
        dataset: Dataset,
        workload: str,
        support: float | None = None,
        *,
        seed: int = 0,
    ) -> "StrategyRunner":
        """A runner for a catalogue workload: the catalogue's
        constructor arguments (plus a miner's ``support``) and
        simulated ``unit_rate``."""
        spec = WORKLOADS[workload]
        return cls(
            dataset=dataset,
            workload_factory=lambda: spec.build(support),
            unit_rate=spec.unit_rate,
            seed=seed,
        )

    def prepared_for(self, partitions: int) -> tuple[ParetoPartitioner, PreparedInput]:
        """Build (and cache) the framework + prepared state for a
        cluster of ``partitions`` nodes."""
        if partitions not in self._prepared:
            cluster = paper_cluster(partitions, seed=self.seed)
            engine = SimulatedEngine(cluster, unit_rate=self.unit_rate)
            pp = ParetoPartitioner(
                engine,
                kind=self.dataset.kind,
                num_strata=self.num_strata,
                seed=self.seed,
                stage_via_kv=False,
            )
            prep = pp.prepare(self.dataset.items, self.workload_factory())
            self._prepared[partitions] = (pp, prep)
        return self._prepared[partitions]

    def run(self, strategy: Strategy, partitions: int) -> RunReport:
        """Execute one strategy on a ``partitions``-node cluster."""
        with obs.span(
            "harness.run",
            dataset=self.dataset.name,
            strategy=strategy.name,
            partitions=partitions,
        ):
            pp, prep = self.prepared_for(partitions)
            report = pp.execute(
                self.dataset.items, self.workload_factory(), strategy, prepared=prep
            )
        log_event(
            _log, logging.DEBUG, "harness.run.done",
            dataset=self.dataset.name, strategy=strategy.name, partitions=partitions,
            makespan_s=round(report.makespan_s, 4),
            dirty_energy_j=round(report.total_dirty_energy_j, 2),
        )
        return report

    def row(self, strategy: Strategy, partitions: int) -> ExperimentRow:
        """Execute and condense into an :class:`ExperimentRow`."""
        report = self.run(strategy, partitions)
        workload = self.workload_factory()
        return ExperimentRow(
            dataset=self.dataset.name,
            workload=getattr(workload, "name", type(workload).__name__),
            partitions=partitions,
            strategy=strategy.name,
            alpha=strategy.alpha,
            makespan_s=report.makespan_s,
            dirty_energy_kj=report.total_dirty_energy_j / 1e3,
            energy_kj=report.total_energy_j / 1e3,
            quality=report.quality(digits=3),
            sizes=report.plan.sizes.tolist(),
        )

    def compare(
        self, strategies: Sequence[Strategy], partition_counts: Sequence[int]
    ) -> list[ExperimentRow]:
        """The cross product: every strategy at every partition count."""
        return [
            self.row(strategy, p)
            for p in partition_counts
            for strategy in strategies
        ]

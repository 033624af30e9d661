"""The workload catalogue: what each named workload of the paper's
evaluation grid *is*.

One frozen record per name holds every decision that depends on the
workload alone — how it is constructed, which dataset kinds it accepts,
where its partitions' items are placed, the α of its Het-Energy-Aware
run, and how fast the simulated cluster chews its work units. The
service (:mod:`repro.service.jobs`), the CLI and the paper experiments
(:mod:`repro.bench.experiments`) name workloads; only this module
constructs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.strategies import (
    ALPHA_COMPRESSION,
    ALPHA_FPM,
    HET_AWARE,
    STRATIFIED,
    Strategy,
    het_energy_aware,
)
from repro.workloads.base import Workload
from repro.workloads.compression.distributed import CompressionWorkload
from repro.workloads.fpm.apriori import AprioriWorkload, LocalMiningWorkload
from repro.workloads.fpm.eclat import EclatWorkload
from repro.workloads.fpm.fpgrowth import FPGrowthWorkload
from repro.workloads.fpm.treemining import TreeMiningWorkload

__all__ = ["WorkloadSpec", "WORKLOADS", "paper_strategies"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload of the evaluation grid."""

    name: str
    #: The workload class and its constructor arguments; a miner also
    #: takes the run's ``min_support`` (see :meth:`build`).
    cls: type[Workload]
    args: Mapping[str, Any]
    #: Dataset kinds it runs on: tree mining needs trees, the itemset
    #: miners set-shaped items (text), compression anything the pivot
    #: extractor handles.
    dataset_kinds: tuple[str, ...]
    #: Representative for mining (every partition mirrors the payload,
    #: so few false positives), similar-together for compression
    #: (low-entropy partitions compress better).
    placement: str = "representative"
    #: The scalarisation weight of its Het-Energy-Aware run.
    alpha: float = ALPHA_FPM
    #: Work units per second of a speed-1 node on the simulated engine,
    #: scaled so a laptop-size job lasts seconds.
    unit_rate: float = 5e4
    #: The dataset kind this workload is the default choice for.
    default_for: str | None = None

    @property
    def mining(self) -> bool:
        return issubclass(self.cls, LocalMiningWorkload)

    def build(self, support: float | None = None) -> Workload:
        """A fresh instance; ``support`` is a miner's relative
        ``min_support`` and means nothing to compression."""
        if self.mining:
            return self.cls(min_support=support, **self.args)
        return self.cls(**self.args)

    def check_runs_on(self, kind: str, dataset: str) -> None:
        """Raise ``ValueError`` unless a dataset of this kind is one
        the workload accepts — the rule both front ends apply."""
        if kind not in self.dataset_kinds:
            raise ValueError(
                f"workload {self.name!r} cannot run on {kind!r} dataset {dataset!r}"
            )


_ANY_KIND = ("graph", "text", "tree")

WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "apriori", AprioriWorkload, dict(max_len=3), ("text",), default_for="text"
        ),
        WorkloadSpec("eclat", EclatWorkload, dict(max_len=3), ("text",)),
        WorkloadSpec("fpgrowth", FPGrowthWorkload, dict(max_len=3), ("text",)),
        WorkloadSpec(
            "treemining",
            TreeMiningWorkload,
            dict(max_len=2),
            ("tree",),
            default_for="tree",
        ),
        WorkloadSpec(
            "webgraph",
            CompressionWorkload,
            dict(algorithm="webgraph"),
            _ANY_KIND,
            placement="similar",
            alpha=ALPHA_COMPRESSION,
            unit_rate=5e3,
            default_for="graph",
        ),
        WorkloadSpec(
            "lz77",
            CompressionWorkload,
            dict(algorithm="lz77", max_chain=8),
            _ANY_KIND,
            placement="similar",
            alpha=ALPHA_COMPRESSION,
            unit_rate=2e4,
        ),
    )
}


def paper_strategies(name: str) -> list[Strategy]:
    """The paper's three schemes — Stratified, Het-Aware and
    Het-Energy-Aware — at the named workload's placement and α."""
    spec = WORKLOADS[name]
    return [
        scheme.with_placement(spec.placement)
        for scheme in (STRATIFIED, HET_AWARE, het_energy_aware(spec.alpha))
    ]

"""One entry point per paper artefact (Figures 2–6, Tables I–III).

Each function returns structured data (rows or series) and is invoked
both by the pytest-benchmark targets in ``benchmarks/`` and by the
example scripts. Defaults are laptop-scale; crank ``size_scale`` for
higher fidelity.

Support thresholds are chosen so the smallest het-aware partition still
has a meaningful absolute support count — at the paper's data sizes
relative support is insensitive to partition size, but at laptop scale
a too-low threshold degenerates (min-count 1 makes everything locally
frequent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.bench.harness import ExperimentRow, StrategyRunner
from repro.core.strategies import at_alpha
from repro.data.datasets import DATASET_NAMES, dataset_summary, load_dataset
from repro.workloads.catalog import WORKLOADS, paper_strategies

#: Partition counts the paper's figures report.
PAPER_PARTITION_COUNTS: tuple[int, ...] = (4, 8, 16)

#: α grid for the Figure 5/6 frontier sweeps, dense near 1.0.
FRONTIER_ALPHAS: tuple[float, ...] = (
    1.0, 0.9995, 0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.95, 0.9, 0.5, 0.0,
)

#: Default mining supports per domain (see module docstring).
TREE_SUPPORT = 0.12
TEXT_SUPPORT = 0.1


@dataclass
class FrontierSeries:
    """One measured Pareto sweep plus its baseline point (Fig. 5/6)."""

    label: str
    points: list[tuple[float, float, float]]  # (alpha, makespan_s, dirty_kJ)
    baseline: tuple[float, float]  # (makespan_s, dirty_kJ)
    meta: dict = field(default_factory=dict)

    def frontier_dominates_baseline(self) -> bool:
        """True when some sweep point beats the baseline in both objectives."""
        bm, be = self.baseline
        return any(m <= bm and e <= be and (m < bm or e < be) for _, m, e in self.points)


def _runner(
    dataset: str, workload: str, support: float | None, size_scale: float, seed: int
) -> StrategyRunner:
    return StrategyRunner.for_workload(
        load_dataset(dataset, size_scale=size_scale), workload, support, seed=seed
    )


def _compare(
    datasets: Sequence[str],
    workload: str,
    partition_counts: Sequence[int],
    *,
    support: float | None = None,
    size_scale: float,
    seed: int,
) -> list[ExperimentRow]:
    """The paper's three strategies for one workload on each dataset
    (``support`` for the miners only)."""
    rows: list[ExperimentRow] = []
    for name in datasets:
        runner = _runner(name, workload, support, size_scale, seed)
        rows.extend(runner.compare(paper_strategies(workload), partition_counts))
    return rows


# -- Table I ---------------------------------------------------------------


def table1_datasets(size_scale: float = 1.0, seed: int = 0) -> list[dict]:
    """Dataset inventory (paper Table I)."""
    return [
        dataset_summary(load_dataset(name, size_scale=size_scale, seed=seed))
        for name in DATASET_NAMES
    ]


# -- Figures 2 and 3: frequent pattern mining -------------------------------


def fig2_tree_mining(
    *,
    size_scale: float = 1.0,
    partition_counts: Sequence[int] = PAPER_PARTITION_COUNTS,
    support: float = TREE_SUPPORT,
    seed: int = 0,
) -> list[ExperimentRow]:
    """Fig. 2: frequent tree mining time + dirty energy on the two tree
    datasets, three strategies, per partition count."""
    return _compare(
        ("swissprot", "treebank"), "treemining", partition_counts,
        support=support, size_scale=size_scale, seed=seed,
    )


def fig3_text_mining(
    *,
    size_scale: float = 1.0,
    partition_counts: Sequence[int] = PAPER_PARTITION_COUNTS,
    support: float = TEXT_SUPPORT,
    seed: int = 0,
) -> list[ExperimentRow]:
    """Fig. 3: Apriori on the RCV1 analog, three strategies."""
    return _compare(
        ("rcv1",), "apriori", partition_counts,
        support=support, size_scale=size_scale, seed=seed,
    )


# -- Figure 4 and Tables II/III: compression ---------------------------------


def fig4_graph_compression(
    *,
    size_scale: float = 1.0,
    partition_counts: Sequence[int] = PAPER_PARTITION_COUNTS,
    seed: int = 0,
) -> list[ExperimentRow]:
    """Fig. 4: WebGraph compression time, dirty energy and compression
    ratio on the two webgraphs, three strategies."""
    return _compare(
        ("uk", "arabic"), "webgraph", partition_counts,
        size_scale=size_scale, seed=seed,
    )


def table2_3_lz77(
    *,
    size_scale: float = 1.0,
    partitions: int = 8,
    seed: int = 0,
) -> list[ExperimentRow]:
    """Tables II/III: LZ77 on UK and Arabic, 8 partitions — execution
    time and compression ratio per strategy."""
    return _compare(
        ("uk", "arabic"), "lz77", [partitions], size_scale=size_scale, seed=seed
    )


# -- Figures 5 and 6: Pareto frontiers ---------------------------------------


def frontier_series(
    runner: StrategyRunner,
    workload: str,
    label: str,
    *,
    partitions: int = 8,
    alphas: Sequence[float] = FRONTIER_ALPHAS,
) -> FrontierSeries:
    """Measure the α sweep and the stratified baseline for one catalogue
    workload, at that workload's placement."""
    placement = WORKLOADS[workload].placement
    pp, prep = runner.prepared_for(partitions)
    sweep = pp.measure_frontier(
        runner.dataset.items, runner.workload_factory(), alphas, placement, prep
    )
    base = runner.run(at_alpha(None, placement), partitions)
    return FrontierSeries(
        label=label,
        points=[
            (alpha, report.makespan_s, report.total_dirty_energy_j / 1e3)
            for alpha, report in sweep
        ],
        baseline=(base.makespan_s, base.total_dirty_energy_j / 1e3),
        meta={"partitions": partitions},
    )


def fig5_pareto_frontiers(
    *,
    size_scale: float = 1.0,
    partitions: int = 8,
    alphas: Sequence[float] = FRONTIER_ALPHAS,
    seed: int = 0,
) -> list[FrontierSeries]:
    """Fig. 5: measured time–energy frontiers for the tree, text and
    graph workloads at 8 partitions, baseline plotted alongside."""
    return [
        frontier_series(
            _runner(dataset, workload, support, size_scale, seed),
            workload,
            f"{kind} ({dataset})",
            partitions=partitions,
            alphas=alphas,
        )
        for kind, dataset, workload, support in (
            ("tree", "swissprot", "treemining", TREE_SUPPORT),
            ("text", "rcv1", "apriori", TEXT_SUPPORT),
            ("graph", "uk", "webgraph", None),
        )
    ]


def fig6_support_sweep(
    *,
    size_scale: float = 1.0,
    partitions: int = 8,
    tree_supports: Sequence[float] = (0.1, 0.12, 0.15),
    text_supports: Sequence[float] = (0.08, 0.1, 0.15),
    alphas: Sequence[float] = FRONTIER_ALPHAS,
    seed: int = 0,
) -> list[FrontierSeries]:
    """Fig. 6: frontiers across support thresholds (tree and text)."""
    series: list[FrontierSeries] = []
    for kind, dataset, workload, supports in (
        ("tree", "swissprot", "treemining", tree_supports),
        ("text", "rcv1", "apriori", text_supports),
    ):
        for support in supports:
            fs = frontier_series(
                _runner(dataset, workload, support, size_scale, seed),
                workload,
                f"{kind} sup={support}",
                partitions=partitions,
                alphas=alphas,
            )
            fs.meta["support"] = support
            series.append(fs)
    return series

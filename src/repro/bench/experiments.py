"""One definition per paper artefact (Figures 2–6, Tables I–III).

Each experiment function returns structured data (rows or series), and
its defaults are the parameters of the committed artefact under
``benchmarks/results/``; ``size_scale`` (and the smaller partition,
support or α sets the keywords take) runs a scaled variant.
:data:`ARTEFACTS` maps each artefact's name to the function that runs
it at those defaults and renders its committed text: the
``benchmarks/bench_fig*``/``bench_table*`` files and ``repro
reproduce`` both read it.

Support thresholds are chosen so the smallest het-aware partition still
has a meaningful absolute support count — at the paper's data sizes
relative support is insensitive to partition size, but at laptop scale
a too-low threshold degenerates (min-count 1 makes everything locally
frequent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.bench.harness import ExperimentRow, StrategyRunner
from repro.bench.reporting import format_frontier, format_table, improvement
from repro.core.strategies import at_alpha
from repro.data.datasets import DATASET_NAMES, dataset_summary, load_dataset
from repro.workloads.catalog import WORKLOADS, paper_strategies

#: Partition counts the paper's figures report.
PAPER_PARTITION_COUNTS: tuple[int, ...] = (4, 8, 16)

#: α grid for the Figure 5 frontier sweep (and ``repro frontier``),
#: dense near 1.0.
FRONTIER_ALPHAS: tuple[float, ...] = (
    1.0, 0.9995, 0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.95, 0.9, 0.5, 0.0,
)

#: The Figure 6 support sweep's coarser α grid (a subset of the above).
SUPPORT_SWEEP_ALPHAS: tuple[float, ...] = (1.0, 0.998, 0.997, 0.995, 0.99, 0.9, 0.0)

#: Dataset size scale of the Figure 5/6 frontier sweeps.
FRONTIER_SCALE = 0.8

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
    dataset: str, workload: str, support: float | None, size_scale: float
) -> StrategyRunner:
    return StrategyRunner.for_workload(
        load_dataset(dataset, size_scale=size_scale), workload, support
    )


def _compare(
    datasets: Sequence[str],
    workload: str,
    partition_counts: Sequence[int],
    support: float | None,
    size_scale: float,
) -> list[ExperimentRow]:
    """The paper's three strategies for one workload on each dataset
    (``support`` for the miners only)."""
    rows: list[ExperimentRow] = []
    for name in datasets:
        runner = _runner(name, workload, support, size_scale)
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
) -> list[ExperimentRow]:
    """Fig. 2: frequent tree mining time + dirty energy on the two tree
    datasets, three strategies, per partition count."""
    return _compare(
        ("swissprot", "treebank"), "treemining", partition_counts, support, size_scale
    )


def fig3_text_mining(
    *,
    size_scale: float = 1.0,
    partition_counts: Sequence[int] = PAPER_PARTITION_COUNTS,
    support: float = TEXT_SUPPORT,
) -> list[ExperimentRow]:
    """Fig. 3: Apriori on the RCV1 analog, three strategies."""
    return _compare(("rcv1",), "apriori", partition_counts, support, size_scale)


# -- Figure 4 and Tables II/III: compression ---------------------------------


def fig4_graph_compression(
    *,
    size_scale: float = 1.0,
    partition_counts: Sequence[int] = PAPER_PARTITION_COUNTS,
) -> list[ExperimentRow]:
    """Fig. 4: WebGraph compression time, dirty energy and compression
    ratio on the two webgraphs, three strategies."""
    return _compare(("uk", "arabic"), "webgraph", partition_counts, None, size_scale)


def table2_3_lz77(*, size_scale: float = 1.0, partitions: int = 8) -> list[ExperimentRow]:
    """Tables II/III: LZ77 on UK and Arabic, 8 partitions — execution
    time and compression ratio per strategy."""
    return _compare(("uk", "arabic"), "lz77", [partitions], None, size_scale)


# -- Figures 5 and 6: Pareto frontiers ---------------------------------------


def frontier_series(
    runner: StrategyRunner,
    workload: str,
    label: str,
    *,
    partitions: int,
    alphas: Sequence[float],
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
    size_scale: float = FRONTIER_SCALE,
    partitions: int = 8,
    alphas: Sequence[float] = FRONTIER_ALPHAS,
) -> list[FrontierSeries]:
    """Fig. 5: measured time–energy frontiers for the tree, text and
    graph workloads at 8 partitions, baseline plotted alongside."""
    return [
        frontier_series(
            _runner(dataset, workload, support, size_scale),
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
    size_scale: float = FRONTIER_SCALE,
    partitions: int = 8,
    tree_supports: Sequence[float] = (0.12, 0.15),
    text_supports: Sequence[float] = (0.1, 0.15),
    alphas: Sequence[float] = SUPPORT_SWEEP_ALPHAS,
) -> list[FrontierSeries]:
    """Fig. 6: frontiers across support thresholds (tree and text)."""
    series: list[FrontierSeries] = []
    for kind, dataset, workload, supports in (
        ("tree", "swissprot", "treemining", tree_supports),
        ("text", "rcv1", "apriori", text_supports),
    ):
        for support in supports:
            fs = frontier_series(
                _runner(dataset, workload, support, size_scale),
                workload,
                f"{kind} sup={support}",
                partitions=partitions,
                alphas=alphas,
            )
            fs.meta["support"] = support
            series.append(fs)
    return series


# -- The committed artefacts -------------------------------------------------


def _time_reduction(rows: Sequence[ExperimentRow], dataset: str) -> float:
    """Het-Aware's makespan cut against Stratified at 8 partitions, %."""
    at8 = {
        r.strategy: r.makespan_s
        for r in rows
        if r.dataset == dataset and r.partitions == 8
    }
    return improvement(at8["Stratified"], at8["Het-Aware"])


def _frontiers_text(series: Sequence[FrontierSeries], figure: int) -> str:
    return "\n\n".join(
        format_frontier(fs.points, baseline=fs.baseline, title=f"FIG {figure} — {fs.label}")
        for fs in series
    )


def _table1() -> tuple[list[dict], str]:
    rows = table1_datasets()
    return rows, "\n".join(["TABLE I — datasets (synthetic analogs)", *map(str, rows)])


def _fig2() -> tuple[list[ExperimentRow], str]:
    rows = fig2_tree_mining()
    return rows, format_table(rows, "FIG 2 — frequent tree mining (time + dirty energy)")


def _fig3() -> tuple[list[ExperimentRow], str]:
    rows = fig3_text_mining()
    speedup = _time_reduction(rows, "rcv1")
    return rows, "\n".join([
        format_table(rows, "FIG 3 — Apriori on RCV1 analog"),
        f"Het-Aware time reduction at 8 partitions: {speedup:.1f}% (paper: up to 37%)",
    ])


def _fig4() -> tuple[list[ExperimentRow], str]:
    rows = fig4_graph_compression()
    speedup = _time_reduction(rows, "arabic")
    return rows, "\n".join([
        format_table(rows, "FIG 4 — WebGraph compression (time, energy, ratio)"),
        f"Het-Aware time reduction on arabic at 8 partitions: {speedup:.1f}% (paper: 51%)",
    ])


def _table2_3() -> tuple[list[ExperimentRow], str]:
    rows = table2_3_lz77()
    return rows, format_table(rows, "TABLES II–III — LZ77 on UK and Arabic (8 partitions)")


def _fig5() -> tuple[list[FrontierSeries], str]:
    series = fig5_pareto_frontiers()
    return series, _frontiers_text(series, 5)


def _fig6() -> tuple[list[FrontierSeries], str]:
    series = fig6_support_sweep()
    return series, _frontiers_text(series, 6)


#: Artefact name (its ``benchmarks/results/<name>.txt``) → the function
#: that runs it at the committed parameters and returns ``(result,
#: committed text)``.
ARTEFACTS: dict[str, Callable[[], tuple[Any, str]]] = {
    "table1_datasets": _table1,
    "fig2_tree_mining": _fig2,
    "fig3_text_mining": _fig3,
    "fig4_graph_compression": _fig4,
    "table2_3_lz77": _table2_3,
    "fig5_pareto_frontiers": _fig5,
    "fig6_support_sweep": _fig6,
}

"""Smoke tests for every per-figure experiment entry point (small scale)."""

import pytest

from repro.bench import experiments
from repro.bench.experiments import FrontierSeries
from repro.cli import main
from repro.core.framework import ParetoPartitioner

SMALL = dict(size_scale=0.35, seed=0)


@pytest.fixture
def sweeps(monkeypatch):
    """The α tuple of every ``ParetoPartitioner.measure_frontier`` call:
    the one α sweep the figures and ``repro frontier`` are measured by."""
    calls = []
    real = ParetoPartitioner.measure_frontier

    def spy(self, items, workload, alphas, *args, **kwargs):
        calls.append(tuple(alphas))
        return real(self, items, workload, alphas, *args, **kwargs)

    monkeypatch.setattr(ParetoPartitioner, "measure_frontier", spy)
    return calls


class TestTable1:
    def test_five_rows(self):
        rows = experiments.table1_datasets(size_scale=0.2)
        assert len(rows) == 5
        assert {r["name"] for r in rows} == {
            "swissprot",
            "treebank",
            "uk",
            "arabic",
            "rcv1",
        }


class TestFig2:
    def test_rows_shape(self):
        rows = experiments.fig2_tree_mining(
            partition_counts=(4,), support=0.15, **SMALL
        )
        assert len(rows) == 6  # 2 datasets × 3 strategies
        assert {r.dataset for r in rows} == {"swissprot", "treebank"}
        assert all(r.makespan_s > 0 for r in rows)


class TestFig3:
    def test_rows_shape(self):
        rows = experiments.fig3_text_mining(
            partition_counts=(4,), support=0.15, **SMALL
        )
        assert len(rows) == 3
        assert {r.strategy for r in rows} == {
            "Stratified",
            "Het-Aware",
            "Het-Energy-Aware",
        }
        # All strategies agree on the mining answer.
        assert len({r.quality["frequent"] for r in rows}) == 1


class TestFig4:
    def test_rows_shape(self):
        rows = experiments.fig4_graph_compression(partition_counts=(4,), **SMALL)
        assert len(rows) == 6
        for r in rows:
            assert r.quality["compression_ratio"] > 1.0


class TestTables23:
    def test_rows_shape(self):
        rows = experiments.table2_3_lz77(partitions=4, **SMALL)
        assert len(rows) == 6
        assert {r.partitions for r in rows} == {4}


class TestFig5:
    def test_series_shape(self, sweeps):
        series = experiments.fig5_pareto_frontiers(
            partitions=4, alphas=(1.0, 0.99, 0.0), **SMALL
        )
        assert len(series) == 3
        assert sweeps == [(1.0, 0.99, 0.0)] * 3
        for fs in series:
            assert len(fs.points) == 3
            assert fs.baseline[0] > 0


class TestFig6:
    def test_series_shape(self, sweeps):
        series = experiments.fig6_support_sweep(
            partitions=4,
            tree_supports=(0.2,),
            text_supports=(0.2,),
            alphas=(1.0, 0.0),
            **SMALL,
        )
        assert len(series) == 2
        assert all("support" in fs.meta for fs in series)
        assert sweeps == [(1.0, 0.0)] * 2

    def test_repro_frontier_is_the_same_sweep(self, sweeps, capsys):
        argv = "frontier --dataset uk --scale 0.15 --partitions 4 --alphas 1.0,0.0"
        assert main(argv.split()) == 0
        assert sweeps == [(1.0, 0.0)]


class TestFrontierSeries:
    def test_dominates_baseline_true(self):
        fs = FrontierSeries(
            label="x", points=[(1.0, 1.0, 1.0), (0.5, 3.0, 0.5)], baseline=(2.0, 2.0)
        )
        assert fs.frontier_dominates_baseline()

    def test_dominates_baseline_false(self):
        fs = FrontierSeries(
            label="x", points=[(1.0, 1.0, 3.0), (0.5, 3.0, 1.0)], baseline=(2.0, 2.0)
        )
        assert not fs.frontier_dominates_baseline()

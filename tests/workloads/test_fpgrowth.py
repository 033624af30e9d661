"""Unit and property tests for FP-growth (must agree with Apriori)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.fpm.apriori import AprioriMiner
from repro.workloads.fpm.fpgrowth import FPGrowthMiner, FPGrowthWorkload, _FPTree

transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6),
    min_size=1,
    max_size=20,
)


class TestFPTree:
    def test_shared_prefix_single_branch(self):
        tree = _FPTree()
        tree.insert([1, 2, 3], 1)
        tree.insert([1, 2, 4], 1)
        # Nodes: 1, 2, 3, 4 — prefix [1, 2] shared.
        assert tree.nodes_created == 4
        assert tree.item_counts[1] == 2
        assert tree.item_counts[2] == 2

    def test_prefix_paths(self):
        tree = _FPTree()
        tree.insert([1, 2, 3], 2)
        tree.insert([1, 3], 1)
        base, _ = tree.prefix_paths(3)
        assert sorted(base) == [([1], 1), ([1, 2], 2)]

    def test_prefix_paths_of_root_item_empty(self):
        tree = _FPTree()
        tree.insert([1, 2], 1)
        base, _ = tree.prefix_paths(1)
        assert base == []


class TestEquivalenceWithApriori:
    @given(transactions_strategy, st.sampled_from([0.2, 0.4, 0.6, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_same_frequent_itemsets(self, tx, support):
        apriori = AprioriMiner(min_support=support).mine(tx).counts
        fpg = FPGrowthMiner(min_support=support).mine(tx).counts
        assert apriori == fpg

    @given(transactions_strategy)
    @settings(max_examples=30, deadline=None)
    def test_same_with_max_len(self, tx):
        apriori = AprioriMiner(min_support=0.3, max_len=2).mine(tx).counts
        fpg = FPGrowthMiner(min_support=0.3, max_len=2).mine(tx).counts
        assert apriori == fpg


class TestFPGrowthBasics:
    def test_empty(self):
        out = FPGrowthMiner(min_support=0.5).mine([])
        assert out.counts == {}

    def test_known_example(self):
        tx = [[1, 2], [1, 2, 3], [2, 3]]
        counts = FPGrowthMiner(min_support=0.6).mine(tx).counts
        assert counts == {(1,): 2, (2,): 3, (3,): 2, (1, 2): 2, (2, 3): 2}

    def test_duplicate_items_deduped(self):
        counts = FPGrowthMiner(min_support=1.0).mine([[1, 1, 2]]).counts
        assert counts == {(1,): 1, (2,): 1, (1, 2): 1}

    def test_item_minus_one_is_not_the_root(self):
        # -1 is a real id here: the prefix walk must stop at the root
        # node, not at the first node whose item equals the root's -1.
        tx = [[2, -1], [2, -1, 5]]
        miner = FPGrowthMiner(min_support=1.0)
        for mine in (miner.mine, miner.mine_reference):
            assert mine(tx).counts == AprioriMiner(min_support=1.0).mine(tx).counts
            assert mine(tx).counts[(-1, 2)] == 2

    def test_cheaper_than_apriori_on_dense_data(self):
        # On dense data the FP-tree collapses the shared prefixes, so
        # FP-growth does far less work than Apriori's repeated scans.
        tx = [list(range(8))] * 10
        fpg = FPGrowthMiner(min_support=0.5).mine(tx)
        apriori = AprioriMiner(min_support=0.5).mine(tx)
        assert fpg.work_units < apriori.work_units
        assert fpg.candidates_generated <= apriori.candidates_generated

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FPGrowthMiner(min_support=0.0)
        with pytest.raises(ValueError):
            FPGrowthMiner(min_support=0.5, max_len=0)


class TestFPGrowthWorkload:
    def test_run_and_merge(self):
        wl = FPGrowthWorkload(min_support=0.5)
        r1 = wl.run([[1, 2], [1, 2]])
        r2 = wl.run([[3], [3]])
        assert wl.merge([r1, r2]) == {(1,), (2,), (1, 2), (3,)}

    def test_work_units_positive(self):
        assert FPGrowthWorkload(min_support=0.5).run([[1, 2]]).work_units > 0

    def test_framework_accepts_fpgrowth(self):
        """FP-growth must drop into execute_fpm unchanged."""
        from repro.cluster.cluster import paper_cluster
        from repro.cluster.engines import SimulatedEngine
        from repro.core.framework import ParetoPartitioner
        from repro.core.strategies import STRATIFIED
        from repro.data.text import CorpusConfig, generate_corpus

        docs = generate_corpus(CorpusConfig(num_docs=200, seed=2)).documents
        pp = ParetoPartitioner(
            SimulatedEngine(paper_cluster(4, seed=0)),
            kind="text",
            num_strata=4,
            stage_via_kv=False,
        )
        report = pp.execute_fpm(docs, FPGrowthWorkload(min_support=0.2, max_len=2), STRATIFIED)
        central = FPGrowthMiner(min_support=0.2, max_len=2).mine(docs).counts
        assert report.merged_output == central

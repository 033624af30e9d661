"""Integration-grade unit tests for the ParetoPartitioner framework."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.core.framework import ParetoPartitioner
from repro.core.optimizer import ParetoOptimizer
from repro.core.strategies import HET_AWARE, RANDOM, STRATIFIED, Strategy
from repro.data.datasets import load_dataset
from repro.kvstore.codec import encode_dataset
from repro.workloads.compression.distributed import CompressionWorkload
from repro.workloads.fpm.apriori import AprioriWorkload


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("rcv1", size_scale=0.3, seed=0)


@pytest.fixture(scope="module")
def pp(dataset):
    cluster = paper_cluster(4, seed=0)
    engine = SimulatedEngine(cluster, unit_rate=5e4)
    return ParetoPartitioner(engine, kind=dataset.kind, num_strata=6, seed=0)


@pytest.fixture(scope="module")
def workload():
    return AprioriWorkload(min_support=0.15, max_len=2)


@pytest.fixture(scope="module")
def prepared(pp, dataset, workload):
    return pp.prepare(dataset.items, workload)


class TestPrepare:
    def test_prepared_contents(self, prepared, dataset):
        assert prepared.num_items == len(dataset)
        assert prepared.profiling.num_nodes == 4
        assert prepared.stratification.num_items == len(dataset)

    def test_models_reflect_speed_order(self, prepared):
        slopes = [m.slope for m in prepared.profiling.models]
        # Speeds 4,3,2,1: slope must increase with node index.
        assert slopes == sorted(slopes)


class TestPlanning:
    def test_stratified_equal_sizes(self, pp, prepared):
        plan = pp.plan(prepared, STRATIFIED)
        assert plan.sizes.max() - plan.sizes.min() <= 1

    def test_het_aware_favours_fast_nodes(self, pp, prepared):
        plan = pp.plan(prepared, HET_AWARE)
        assert plan.sizes[0] > plan.sizes[3]

    def test_auto_min_items_respected(self, pp, prepared):
        plan = pp.plan(prepared, Strategy(name="x", alpha=0.9))
        floor = min(prepared.profiling.sample_sizes)
        for s in plan.sizes:
            assert s == 0 or s >= min(floor, prepared.num_items // 4) - 1

    def test_plan_and_budget_plan_see_the_same_floor(self, pp, prepared, monkeypatch):
        """Plans at several α and a budget plan on one prepared input
        read one front, enumerated once, at the framework's floor."""
        # A fresh optimizer: the fixture's is shared, its memo already filled.
        optimizer = ParetoOptimizer(prepared.optimizer.models, prepared.optimizer.dirty_coeffs)
        prepared = dataclasses.replace(prepared, optimizer=optimizer)
        enumerated = []
        bands = ParetoOptimizer._bands  # what solve and the budget planner both read

        def spy(self, total_items, min_items):
            enumerated.append((total_items, min_items))
            return bands(self, total_items, min_items)

        monkeypatch.setattr(ParetoOptimizer, "_bands", spy)
        plans = [pp.plan(prepared, Strategy("x", alpha)) for alpha in (1.0, 0.997, 0.9, 0.0)]
        budgeted = pp.plan_for_budget(prepared, max_dirty_energy_j=1e12)
        plans.append(pp.plan(prepared, HET_AWARE))
        wanted = min(prepared.profiling.sample_sizes)
        assert enumerated == [(prepared.num_items, min(wanted, prepared.num_items // 4))]
        front = [plan.sizes.tolist() for plan in optimizer.front(*enumerated[0])]
        assert all(plan.sizes.tolist() in front for plan in plans)
        assert budgeted.sizes.tolist() == front[0]  # an unbinding budget: the fastest

    def test_placement_matches_plan_sizes(self, pp, prepared):
        for strategy in (STRATIFIED, HET_AWARE, RANDOM):
            plan = pp.plan(prepared, strategy)
            parts = pp.place(prepared, strategy, plan)
            assert [p.size for p in parts] == plan.sizes.tolist()
            union = np.concatenate(parts)
            assert sorted(union.tolist()) == list(range(prepared.num_items))


class TestExecute:
    def test_run_report_fields(self, pp, dataset, workload, prepared):
        report = pp.execute(dataset.items, workload, STRATIFIED, prepared=prepared)
        assert report.makespan_s > 0
        assert report.total_energy_j > report.total_dirty_energy_j >= 0
        assert report.strategy is STRATIFIED

    def test_kv_staging_round_trips(self, pp, dataset, workload, prepared):
        report = pp.execute(dataset.items, workload, STRATIFIED, prepared=prepared)
        assert report.kv_round_trips > 0

    def test_kv_staging_can_be_disabled(self, dataset, workload):
        cluster = paper_cluster(4, seed=0)
        engine = SimulatedEngine(cluster, unit_rate=5e4)
        pp2 = ParetoPartitioner(
            engine, kind=dataset.kind, num_strata=6, stage_via_kv=False, seed=0
        )
        report = pp2.execute(dataset.items, workload, STRATIFIED)
        assert report.kv_round_trips == 0

    def test_prepare_reused_across_strategies(self, pp, dataset, workload, prepared):
        r1 = pp.execute(dataset.items, workload, STRATIFIED, prepared=prepared)
        r2 = pp.execute(dataset.items, workload, HET_AWARE, prepared=prepared)
        assert r1.makespan_s != r2.makespan_s  # different plans executed

    def test_without_prepared_runs_full_pipeline(self, pp, dataset, workload):
        report = pp.execute(dataset.items, workload, STRATIFIED)
        assert report.makespan_s > 0


class TestExecuteFpm:
    def test_two_phase_accounting(self, pp, dataset, workload, prepared):
        report = pp.execute_fpm(dataset.items, workload, STRATIFIED, prepared=prepared)
        assert report.extra["local_makespan_s"] + report.extra[
            "count_makespan_s"
        ] == pytest.approx(report.makespan_s)
        assert report.extra["false_positives"] >= 0
        assert report.extra["candidates"] >= report.extra["frequent"]

    def test_fpm_result_is_exact(self, pp, dataset, workload, prepared):
        """Distributed mining through the whole framework equals central
        mining — placement must not change the answer."""
        from repro.workloads.fpm.apriori import AprioriMiner

        central = AprioriMiner(min_support=0.15, max_len=2).mine(dataset.items).counts
        for strategy in (STRATIFIED, HET_AWARE):
            report = pp.execute_fpm(dataset.items, workload, strategy, prepared=prepared)
            assert report.merged_output == central

    def test_rejects_non_mining_workload(self, pp, dataset, prepared):
        with pytest.raises(TypeError):
            pp.execute_fpm(
                dataset.items, CompressionWorkload("lz77"), STRATIFIED, prepared=prepared
            )


class TestStaging:
    @pytest.mark.parametrize("via_kv", (True, False))
    def test_unencodable_items_are_rejected_at_prepare(self, dataset, workload, via_kv):
        """The staged representation is the codec's whichever way the
        partitions travel, so its range checks apply to both."""
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=5e4)
        pp2 = ParetoPartitioner(
            engine, kind=dataset.kind, num_strata=6, stage_via_kv=via_kv, seed=0
        )
        items = [list(item) for item in dataset.items]
        items[3] = items[3] + [2**32]
        with pytest.raises(ValueError, match="uint32"):
            pp2.prepare(items, workload)

    def test_phase_two_form_is_built_once_at_prepare(self, prepared):
        """Itemset miners count against the records themselves; a tree
        miner against pivot lists converted once, for the whole dataset."""
        from repro.workloads.fpm.treemining import TreeMiningWorkload

        assert prepared.counted is prepared.staged
        ds = load_dataset("swissprot", size_scale=0.15, seed=0)
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=5e4)
        pp2 = ParetoPartitioner(engine, kind="tree", num_strata=6, seed=0)
        miner = TreeMiningWorkload(0.15, max_len=1)
        mined = pp2.prepare(ds.items, miner)
        assert mined.counted is not mined.staged
        everything = mined.counted.gather(range(len(ds.items)))
        assert everything.records() == miner.count_records(ds.items)

    @pytest.mark.parametrize("name", ["rcv1", "swissprot"])
    def test_an_encoded_dataset_prepares_as_its_records_do(self, name):
        """The service's path: the dataset encoded, with its
        stratification, and no record kept by the prepared input."""
        from repro.workloads.fpm.treemining import TreeMiningWorkload

        ds = load_dataset(name, size_scale=0.15, seed=0)
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=5e4)
        pp2 = ParetoPartitioner(engine, kind=ds.kind, num_strata=6, seed=0)
        if ds.kind == "tree":
            miner = TreeMiningWorkload(0.15, max_len=1)
        else:
            miner = AprioriWorkload(min_support=0.15, max_len=2)
        strata = pp2.stratifier().stratify(ds.items)
        from_records = pp2.prepare(ds.items, miner, stratification=strata)
        encoded = encode_dataset(ds.kind, ds.items)
        from_columns = pp2.prepare(encoded, miner, stratification=strata)
        assert from_columns.staged is encoded and not hasattr(from_columns, "items")
        assert from_columns.num_items == len(ds.items)
        assert from_columns.profiling == from_records.profiling
        for form in ("values", "offsets"):
            assert np.array_equal(
                getattr(from_columns.counted, form), getattr(from_records.counted, form)
            )
        plans = [pp2.plan(p, HET_AWARE).sizes.tolist() for p in (from_records, from_columns)]
        assert plans[0] == plans[1]
        # An encoding without its stratification is stratified as is.
        stratified_here = pp2.prepare(encoded, miner)
        assert np.array_equal(stratified_here.stratification.labels, strata.labels)
        assert stratified_here.profiling == from_records.profiling
        with pytest.raises(ValueError, match="encoded as"):
            pp2.prepare(encode_dataset("set", [[1], [2]]), miner, stratification=strata)


class TestCompressionPath:
    def test_similar_placement_end_to_end(self):
        ds = load_dataset("uk", size_scale=0.2, seed=0)
        cluster = paper_cluster(4, seed=0)
        pp = ParetoPartitioner(
            SimulatedEngine(cluster, unit_rate=5e3),
            kind="graph",
            num_strata=6,
            seed=0,
        )
        wl = CompressionWorkload("webgraph")
        report = pp.execute(ds.items, wl, STRATIFIED.with_placement("similar"))
        assert report.merged_output.ratio > 1.0


class TestTreePath:
    def test_tree_items_survive_kv_staging(self):
        ds = load_dataset("swissprot", size_scale=0.15, seed=0)
        cluster = paper_cluster(4, seed=0)
        pp = ParetoPartitioner(
            SimulatedEngine(cluster, unit_rate=5e4), kind="tree", num_strata=6, seed=0
        )
        from repro.workloads.fpm.treemining import TreeMiningWorkload

        wl = TreeMiningWorkload(min_support=0.15, max_len=1)
        report = pp.execute_fpm(ds.items, wl, STRATIFIED)
        assert report.kv_round_trips > 0
        assert report.extra["frequent"] > 0

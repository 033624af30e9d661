"""Count-based guards on the staging path (deterministic, tier-1).

One warm repeat per benchmark job kind on a real ``ProcessPoolEngine``:
a partition is staged as a slice of the dataset's encoding, so the
parent process performs
no per-record work — no per-record codec call, no tree conversion —
and the KV hop costs two round trips per partition, counted per job.
Timings live in ``benchmarks/e2e``; these are the counts behind them.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ProcessPoolEngine, SimulatedEngine
from repro.core.framework import ParetoPartitioner
from repro.core.strategies import HET_AWARE, STRATIFIED
from repro.data.datasets import load_dataset
from repro.kvstore import codec, serializers
from repro.service.jobs import (
    MINING_WORKLOADS,
    SERVICE_WORKLOADS,
    build_workload,
    default_placement,
)
from repro.perf import tree_kernels
from repro.stratify import pivots
from repro.workloads.base import Workload

#: The e2e benchmark's four job kinds, at test size.
KINDS = {
    "webgraph": ("uk", 0.3),
    "lz77": ("uk", 0.2),
    "treemining": ("swissprot", 0.2),
    "fpgrowth": ("rcv1", 0.3),
}
SUPPORT = {"webgraph": 0.1, "lz77": 0.1, "treemining": 0.3, "fpgrowth": 0.1}
DATASET_FOR = {name: "swissprot" if name == "treemining" else "rcv1" for name in MINING_WORKLOADS}


@pytest.fixture(scope="module")
def engine():
    cluster = paper_cluster(4, seed=0, task_overhead_s=0.02)
    with ProcessPoolEngine(cluster, max_workers=2) as pool:
        yield pool


def _scenario(engine, name, stage_via_kv=True):
    """``(run, items, workload)`` for one job kind: ``run(strategy)``
    executes over one ``PreparedInput``, as the benchmark's ops do."""
    dataset_name, scale = KINDS[name]
    dataset = load_dataset(dataset_name, size_scale=scale, seed=0)
    pp = ParetoPartitioner(
        engine, kind=dataset.kind, num_strata=6, seed=0, stage_via_kv=stage_via_kv
    )
    workload = build_workload(name, SUPPORT[name])
    prepared = pp.prepare(dataset.items, workload)
    execute = pp.execute_fpm if workload.two_phase else pp.execute

    def run(strategy):
        strategy = strategy.with_placement(default_placement(name))
        return execute(dataset.items, workload, strategy, prepared=prepared)

    return run, dataset.items, workload


def _spy_everywhere(monkeypatch, func):
    """Count calls to ``func`` through every ``repro`` module that
    holds it by name. Pool workers are other processes, so only the
    parent's calls are seen — which is the point."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(func.__name__)
        return func(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro.") and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, spy)
    return calls


@pytest.mark.parametrize("name", KINDS)
def test_warm_repeat_does_no_per_record_work_in_the_parent(engine, name, monkeypatch):
    run, items, workload = _scenario(engine, name)
    run(HET_AWARE)  # warms the pool for the kind

    spies = {
        func.__name__: _spy_everywhere(monkeypatch, func)
        for func in (
            serializers.serialize_item,
            serializers.deserialize_item,
            codec.encode_record,
            codec.decode_record,
            pivots.tree_pivots,
            tree_kernels.tree_triples,
        )
    }
    decodes = []
    records = codec.EncodedDataset.records
    monkeypatch.setattr(
        codec.EncodedDataset, "records", lambda self: decodes.append(self) or records(self)
    )
    report = run(HET_AWARE)

    assert {k: len(v) for k, v in spies.items() if v} == {}
    assert decodes == []  # encoded slices all the way to the workers
    assert 0 < report.kv_round_trips <= 2 * report.plan.num_partitions
    assert sum(report.plan.sizes) == len(items)

    # The spies do sit on the names the code resolves: the per-record
    # reference path and an in-parent tree conversion both trip them.
    engine.cluster.kv.put_partition(0, 99, [[1, 2]])
    assert engine.cluster.kv.get_item(0, 99, 0) == [1, 2]
    assert spies["encode_record"] and spies["decode_record"]
    if name == "treemining":
        workload.count_records(items[:2])
        assert len(spies["tree_triples"]) == 1  # one batch, not one call per tree


def test_two_jobs_staging_through_one_cluster_read_back_their_own(monkeypatch):
    """Partition keys carry no job: two threads staging through one
    cluster's KV store at once must each read back their own partitions
    and count only their own round trips."""
    pp = ParetoPartitioner(
        SimulatedEngine(paper_cluster(4, seed=0)), kind="set", num_strata=4, seed=0
    )
    kv = pp.engine.cluster.kv
    get_partition = type(kv).get_partition

    def yielding_get(self, node, pid):
        time.sleep(0.02)  # another job's put lands here without the lock
        return get_partition(self, node, pid)

    monkeypatch.setattr(type(kv), "get_partition", yielding_get)
    inputs = {
        job: SimpleNamespace(
            staged=codec.encode_dataset("set", [[job, i] for i in range(12)])
        )
        for job in (1, 2)
    }
    indices = [np.arange(0, 6), np.arange(6, 12)]
    start, out = threading.Barrier(2), {}

    def stage(job):
        start.wait()
        out[job] = pp._materialize(inputs[job], indices)

    threads = [threading.Thread(target=stage, args=(job,)) for job in inputs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    for job, (partitions, round_trips) in out.items():
        assert [p.records() for p in partitions] == [
            [[job, i] for i in idx] for idx in indices
        ]
        assert round_trips == 2 * len(indices)


@pytest.mark.parametrize("name", MINING_WORKLOADS)
def test_count_records_is_a_per_record_map(name):
    """The documented ``Workload.count_records`` contract the framework
    leans on when it converts the dataset once."""
    assert name in SERVICE_WORKLOADS
    workload = build_workload(name, 0.2)
    assert workload.two_phase
    items = load_dataset(DATASET_FOR[name], size_scale=0.1, seed=0).items
    a, b = items[:17], items[17:40]
    whole = workload.count_records(a + b)
    assert list(whole) == list(workload.count_records(a)) + list(workload.count_records(b))
    assert len(whole) == len(a) + len(b)
    assert list(workload.count_records([])) == []


def test_two_phase_run_needs_the_count_records_it_was_prepared_with():
    """``PreparedInput.counted`` is one workload's ``count_records`` of
    the dataset; phase 2 must not count another workload's candidates
    against it."""
    trees = load_dataset("swissprot", size_scale=0.1, seed=0).items
    pp = ParetoPartitioner(
        SimulatedEngine(paper_cluster(4, seed=0)), kind="tree", num_strata=4, seed=0
    )
    mining = build_workload("treemining", 0.3)

    class CountsRawTrees(type(mining)):
        count_records = Workload.count_records

    for prepared_with, run_with in (
        (CountsRawTrees(min_support=0.3), mining),
        (mining, CountsRawTrees(min_support=0.3)),
    ):
        prepared = pp.prepare(trees, prepared_with)
        for execute in (pp.execute, pp.execute_fpm):
            with pytest.raises(ValueError, match="prepare with the workload that runs"):
                execute(trees, run_with, STRATIFIED, prepared=prepared)
    assert pp.execute_fpm(trees, mining, STRATIFIED, prepared=prepared).extra["candidates"]

    # Apriori, Eclat and FP-Growth share the identity map, so one
    # prepared input still serves all three.
    sets = load_dataset("rcv1", size_scale=0.1, seed=0).items
    pp = ParetoPartitioner(
        SimulatedEngine(paper_cluster(4, seed=0)), kind="set", num_strata=4, seed=0
    )
    prepared = pp.prepare(sets, build_workload("apriori", 0.3))
    answers = [
        pp.execute_fpm(sets, build_workload(name, 0.3), STRATIFIED, prepared=prepared).merged_output
        for name in ("apriori", "eclat", "fpgrowth")
    ]
    assert answers[0] == answers[1] == answers[2]


@pytest.mark.parametrize("name", ("lz77", "treemining"))
def test_threads_sharing_one_prepared_input_agree(engine, name):
    """The service's situation: several manager threads run jobs over
    one cached ``PreparedInput`` (no KV hop there) at the same time."""
    run, _items, _workload = _scenario(engine, name, stage_via_kv=False)
    strategies = (STRATIFIED, HET_AWARE)

    def answer(report):
        merged = report.merged_output
        summary = vars(merged) if hasattr(merged, "ratio") else merged
        return [int(s) for s in report.plan.sizes], summary, report.extra.get("candidates")

    expected = [answer(run(s)) for s in strategies]

    def repeat(strategy):
        return [answer(run(strategy)) for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as threads:
            futures = [threads.submit(repeat, s) for s in strategies]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[e] * 4 for e in expected]

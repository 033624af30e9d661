"""Flat-kind kernels on staged columns: ``columns_of`` and its callers.

A staged partition reaches ``workload.run`` as the
:class:`~repro.kvstore.codec.EncodedDataset` slice it was staged as, and the
flat-kind kernels (WebGraph, LZ77 text framing, FP-growth, the packed
Apriori/Eclat bitmap and the phase-2 count) read it through
:func:`~repro.kvstore.codec.columns_of`. These tests hold that seam to
the record-list path: the same columns, the same validation, and every
kernel's output, stats and work units identical on ``p`` and on
``records_of(p)`` — on ruler-plan partitions and through both engines
with decoding made impossible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_kernels import ruler_plan_partitions
from repro.cluster import ProcessPoolEngine, SimulatedEngine, paper_cluster
from repro.data.datasets import DATASET_KINDS, load_dataset
from repro.kvstore import codec
from repro.kvstore.codec import columns_of, encode_dataset, records_of
from repro.service.jobs import build_workload
from repro.workloads.fpm.apriori import AprioriWorkload, CandidateCountWorkload
from repro.workloads.fpm.eclat import EclatWorkload

records_strategy = st.lists(
    st.lists(st.integers(0, 2**32 - 1), max_size=12), max_size=30
)


def staged(kind, partition):
    """``partition`` staged as staging stages it: one gather of the
    dataset's columnar encoding."""
    return encode_dataset(kind, partition).gather(np.arange(len(partition)))


class TestColumnsOf:
    @given(records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_framed_and_record_columns_agree(self, records):
        framed_values, framed_sizes = columns_of(staged("set", records))
        values, sizes = columns_of(records)
        assert framed_values.dtype == values.dtype == np.int64
        assert framed_sizes.dtype == sizes.dtype == np.int64
        assert framed_values.tolist() == values.tolist()
        assert framed_sizes.tolist() == sizes.tolist()

    def test_columns_are_the_records_back_to_back(self):
        values, sizes = columns_of(staged("graph", [[3, 1], [], [7]]))
        assert values.tolist() == [3, 1, 7] and sizes.tolist() == [2, 0, 1]
        values, sizes = columns_of(staged("set", []))
        assert values.size == 0 and sizes.size == 0

    def test_tree_records_are_not_flat(self):
        trees = [((-1, 0), (4, 5))]
        with pytest.raises(ValueError, match="not flat"):
            columns_of(staged("tree", trees))

    def test_record_list_values_outside_int64_overflow(self):
        with pytest.raises(OverflowError):
            columns_of([[1, 2**63]])


def _comparable(output):
    """A workload's output or a job's merged output, comparably: a
    mining dict in order, a compression summary as its fields."""
    if hasattr(output, "counts"):
        return (
            list(output.counts.items()),
            output.num_transactions,
            output.candidates_generated,
            output.work_units,
        )
    if hasattr(output, "compressed_bytes") and not isinstance(output, dict):
        return output.raw_bytes, output.compressed_bytes, output.num_partitions
    if isinstance(output, set):
        return sorted(output)
    return output


def _result(result):
    """Everything a workload result or a task carries, comparably."""
    return result.work_units, _comparable(result.output), result.stats


@pytest.fixture(scope="module")
def ruler_partitions():
    """Each flat kind's Het-Aware ruler-plan partitions, staged."""
    out = {}
    for workload, dataset, scale in (
        ("webgraph", "uk", 2.4),
        ("lz77", "uk", 0.8),
        ("fpgrowth", "rcv1", 4.0),
    ):
        partitions, _ = ruler_plan_partitions(workload, dataset, scale)
        out[workload] = [staged(DATASET_KINDS[dataset], part) for part in partitions]
    return out


class TestKernelsOnColumns:
    @pytest.mark.parametrize("workload", ["webgraph", "lz77", "fpgrowth"])
    def test_phase_one_on_partition_and_records(self, ruler_partitions, workload):
        job = build_workload(workload, 0.1)
        kernel = {
            "webgraph": lambda p: job.codec.compress(p),
            "lz77": lambda p: job.codec.compress_text_records(p),
            "fpgrowth": lambda p: job.miner.mine(p),
        }[workload]
        parts = ruler_partitions[workload]
        assert len(parts) >= 3
        for part in parts:
            records = records_of(part)
            assert _result(job.run(part)) == _result(job.run(records))
            # The kernel's own return: blob and stats, or the mining output.
            assert _comparable(kernel(part)) == _comparable(kernel(records))

    def test_webgraph_records_keep_the_uint64_id_domain(self):
        run = build_workload("webgraph", 0.1).run
        with pytest.raises(ValueError, match="uint64"):
            run([[1, 2**64]])
        big = [[2**64 - 1, 2**63], [2**63, 5]]
        assert run(big).output["raw_bytes"] == 16

    def test_phase_two_and_the_other_miners(self, ruler_partitions):
        fpgrowth = build_workload("fpgrowth", 0.1)
        parts = ruler_partitions["fpgrowth"]
        candidates = fpgrowth.merge([fpgrowth.run(p) for p in parts])
        count = CandidateCountWorkload(
            sorted(candidates), 0.1, total_transactions=sum(map(len, parts))
        )
        for part in parts:
            assert _result(count.run(part)) == _result(count.run(records_of(part)))
        for miner in (AprioriWorkload(0.1, max_len=3), EclatWorkload(0.1, max_len=3)):
            part = parts[-1]
            assert _result(miner.run(part)) == _result(miner.run(records_of(part)))


def _jobs():
    """One small job per flat kind: (workload, staged partitions)."""
    jobs = []
    for name, dataset, scale in (
        ("webgraph", "uk", 0.3),
        ("lz77", "uk", 0.2),
        ("fpgrowth", "rcv1", 0.5),
    ):
        data = load_dataset(dataset, size_scale=scale, seed=1)
        encoded = encode_dataset(data.kind, data.items)
        cuts = np.array_split(np.arange(len(encoded)), 4)
        jobs.append((build_workload(name, 0.1), [encoded.gather(ix) for ix in cuts]))
    return jobs


def _answers(engine, jobs):
    out = []
    for workload, parts in jobs:
        job = engine.run_job(workload, parts, assignment=[0, 1, 2, 3])
        out.append(([_result(t) for t in job.tasks], _comparable(job.merged_output)))
    return out


def test_flat_jobs_never_decode_on_either_engine(monkeypatch):
    """With ``EncodedDataset.records`` raising — in the parent, and so
    in a pool forked after the patch — webgraph, lz77 and fpgrowth jobs
    on staged partitions still run, and answer as their decoded record
    lists do."""
    jobs = _jobs()
    cluster = paper_cluster(4, seed=0)
    expected = _answers(
        SimulatedEngine(cluster), [(w, [p.records() for p in parts]) for w, parts in jobs]
    )

    def refuse(self):
        raise AssertionError("a flat-kind partition was decoded")

    monkeypatch.setattr(codec.EncodedDataset, "records", refuse)
    assert _answers(SimulatedEngine(cluster), jobs) == expected
    with ProcessPoolEngine(cluster, max_workers=2) as engine:
        assert engine.pools_created == 0  # forked below, after the patch
        assert _answers(engine, jobs) == expected
        assert engine.pools_created == 1

"""Tests for the data plane: how a partition reaches a pool worker.

A partition rides in its task tuple, pickled with the task; these
tests send each kind of partition through ``ProcessPoolEngine`` and
compare what the worker received with what was sent.
"""

import pickle

import numpy as np
import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ProcessPoolEngine
from repro.kvstore.codec import EncodedDataset, encode_dataset
from repro.workloads.base import Workload, WorkloadResult


class EchoWorkload(Workload):
    """Returns the partition the worker received, as it arrived."""

    name = "echo"

    def run(self, records) -> WorkloadResult:
        return WorkloadResult(work_units=float(len(records)), output=records)

    def merge(self, partials):
        return [p.output for p in partials]


@pytest.fixture(scope="module")
def engine():
    with ProcessPoolEngine(paper_cluster(2, seed=0), max_workers=2) as e:
        yield e


def echo(engine, parts):
    return engine.run_job(EchoWorkload(), parts).merged_output


class TestRoundTrip:
    def test_list_partition(self, engine):
        part = [[1, 2, 3], [4], []]
        assert echo(engine, [part]) == [part]

    def test_numpy_partition_goes_out_of_band(self, engine):
        """A partition of arrays (a bare ndarray, or a staged slice's
        two columns) pickles as its raw buffers: protocol 5 lifts them
        out of band and leaves a frame of a few hundred bytes. Either
        reaches the worker intact."""
        arr = np.arange(4096, dtype=np.int64)
        staged = encode_dataset("set", [[7, 8, 9], [], [1], [2, 3]])
        slice_ = staged.gather([3, 0])
        for part in (arr, slice_):
            buffers = []
            frame = pickle.dumps(part, protocol=5, buffer_callback=buffers.append)
            assert buffers  # protocol-5 out-of-band buffers
            assert len(frame) < 1024
        got_arr, got_slice = echo(engine, [arr, slice_])
        assert np.array_equal(got_arr, arr)
        assert isinstance(got_slice, EncodedDataset) and got_slice.kind == "set"
        assert np.array_equal(got_slice.values, slice_.values)
        assert np.array_equal(got_slice.offsets, slice_.offsets)
        assert got_slice.records() == [[2, 3], [7, 8, 9]]

    def test_mixed_batch(self, engine):
        slice_ = encode_dataset("set", [[5, 6], [1]]).gather([1, 0])
        parts = [[1, 2], list(range(100)), [{"k": "v"}], slice_]
        echoed = echo(engine, parts)
        assert echoed[:3] == parts[:3]
        assert echoed[3].records() == [[1], [5, 6]]

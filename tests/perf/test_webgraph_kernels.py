"""Byte-identity tests: whole-partition WebGraph coder vs the reference.

``WebGraphCodec.compress`` (the kernels of
:mod:`repro.perf.webgraph_kernels`) claims the blob *and* every
``WebGraphStats`` field of ``compress_reference``. Hypothesis drives
partitions built to reach every branch of the format: lists drawn from
a shared pool (so references win), duplicates and unsorted input,
empty lists, dense runs long enough for two-byte interval lengths and
copy runs, ids up to 2^64 − 1, and windows from 0 to past 128.
"""

import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.bench_kernels import ruler_plan_partitions
from repro.perf.webgraph_kernels import flatten_lists, plain_lengths
from repro.workloads.compression.webgraph import WebGraphCodec, _encode_plain

TOP = 2**64 - 1


def assert_matches_reference(adjacency, window=7):
    codec = WebGraphCodec(window=window)
    blob_f, st_f = codec.compress(adjacency)
    blob_r, st_r = codec.compress_reference(adjacency)
    assert blob_f == blob_r
    assert asdict(st_f) == asdict(st_r)
    return blob_f, st_f


@st.composite
def partitions(draw):
    """Lists that share a pool of ids, some with a dense run, each
    optionally shuffled and padded with its own duplicates."""
    top = draw(st.sampled_from([200, 5_000, TOP]))
    ids = st.integers(0, top)
    pool = draw(st.lists(ids, max_size=20))
    run_at = draw(st.integers(0, max(top - 300, 0)))
    adjacency = []
    for _ in range(draw(st.integers(0, 12))):
        keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
        lst = [v for v, k in zip(pool, keep) if k] + draw(st.lists(ids, max_size=6))
        run = draw(st.sampled_from([0, 0, 3, 140, 300]))
        lst += range(run_at + draw(st.integers(0, 4)), run_at + run)
        if draw(st.booleans()):
            lst = lst + lst[: len(lst) // 3]
            random.Random(draw(st.integers(0, 9))).shuffle(lst)
        adjacency.append(lst)
    return adjacency


class TestCompressParity:
    @given(partitions(), st.sampled_from([0, 1, 2, 7, 130]))
    @example([], 7)
    @example([[], [], []], 2)
    @example([[5, 3, 5, 1]], 0)
    @example([[TOP - 2, TOP - 1, TOP], [0, TOP], [TOP]], 7)
    @settings(max_examples=60, deadline=None)
    def test_blob_and_stats_match_reference(self, adjacency, window):
        blob, _ = assert_matches_reference(adjacency, window)
        expected = [sorted(set(lst)) for lst in adjacency]
        assert WebGraphCodec(window=window).decompress(blob) == expected

    def test_reference_more_than_128_lists_back(self):
        # List 130 repeats list 0 and nothing in between overlaps it, so
        # the winning reference distance is a two-byte varint.
        rng = random.Random(5)
        base = sorted(rng.sample(range(10**6), 40))
        fillers = [[10**7 + 50 * i + j for j in range(5)] for i in range(129)]
        adjacency = [base] + fillers + [base + [10**8]]
        blob, stats = assert_matches_reference(adjacency, window=130)
        shorter, _ = assert_matches_reference(adjacency, window=129)
        assert len(blob) < len(shorter)
        assert stats.referenced_lists >= 1

    def test_many_similar_lists_in_a_wide_window(self):
        rng = random.Random(6)
        base = rng.sample(range(5_000), 12)
        adjacency = [
            [v for v in base if rng.random() < 0.9] + [rng.randrange(5_000)] for _ in range(131)
        ]
        _, stats = assert_matches_reference(adjacency, window=130)
        assert stats.referenced_lists > 100

    @pytest.mark.parametrize("bad", [[[1, -1]], [[3], [2**64]]])
    def test_ids_outside_uint64_raise(self, bad):
        with pytest.raises(ValueError):
            WebGraphCodec().compress(bad)

    def test_every_partition_of_a_ruler_plan(self):
        # The e2e benchmark's webgraph data (uk × 2.4), cut by a
        # Het-Aware plan with the kind's similar-together placement: the
        # cut the kernel bench times.
        partitions, _ = ruler_plan_partitions("webgraph", "uk", 2.4)
        assert len(partitions) >= 3
        for part in partitions:
            _, stats = assert_matches_reference(part)
            assert stats.referenced_lists > 0


class TestKernelPieces:
    def test_flatten_sorts_and_deduplicates(self):
        part = flatten_lists([[5, 1, 5], [], [TOP, 0]])
        assert part.offsets.tolist() == [0, 2, 2, 4]
        assert part.values.tolist() == [1, 5, 0, TOP]
        assert part.lists.tolist() == [0, 0, 2, 2]
        assert (np.diff(part.keys) > 0).all()

    @given(st.lists(st.lists(st.integers(0, 400), max_size=40), max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_plain_lengths(self, adjacency):
        part = flatten_lists(adjacency)
        got = plain_lengths(part.values, part.lists, len(adjacency)).tolist()
        assert got == [len(_encode_plain(sorted(set(lst)))) for lst in adjacency]

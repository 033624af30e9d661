"""Bit-identity tests: array-forest FP-growth vs the pointer-tree miner.

``FPGrowthMiner.mine`` (the kernel of :mod:`repro.perf.fpgrowth_kernels`)
claims the reference's output dict *in its emission order*, its
conditional-base count and its tree-node visits. Hypothesis drives
transactions drawn from a shared pool (so conditional trees share
prefixes and go deep), with duplicates, empty transactions, negative and
int64-extreme ids, supports down to a count of 1 and every ``max_len``;
fixed cases reach more than 64 frequent items (multi-word path masks)
and the e2e benchmark's own partitions.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.bench_kernels import ruler_plan_partitions
from repro.perf.fpgrowth_kernels import distinct_items, sorted_distinct
from repro.service.jobs import build_workload
from repro.workloads.fpm.fpgrowth import FPGrowthMiner

LOW, HIGH = -(2**63), 2**63 - 1


def assert_matches_reference(transactions, min_support=0.1, max_len=None):
    miner = FPGrowthMiner(min_support=min_support, max_len=max_len)
    got, want = miner.mine(transactions), miner.mine_reference(transactions)
    assert list(got.counts.items()) == list(want.counts.items())
    assert got.candidates_generated == want.candidates_generated
    assert got.work_units == want.work_units
    assert got.num_transactions == want.num_transactions
    return got


@st.composite
def transactions(draw):
    """Transactions that share a pool of ids, some with duplicates."""
    ids = draw(
        st.sampled_from(
            [st.integers(0, 12), st.integers(-3, 40), st.sampled_from([LOW, -1, 0, 7, HIGH])]
        )
    )
    pool = draw(st.lists(ids, max_size=10))
    out = []
    for _ in range(draw(st.integers(0, 30))):
        keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
        t = [v for v, k in zip(pool, keep) if k] + draw(st.lists(ids, max_size=3))
        if draw(st.booleans()):
            t = t + t[: len(t) // 2]
            random.Random(draw(st.integers(0, 9))).shuffle(t)
        out.append(t)
    return out


class TestMineParity:
    @given(
        transactions(),
        st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 1.0]),
        st.sampled_from([None, 1, 2, 3, 4]),
    )
    @example([], 0.5, None)
    @example([[], [], []], 0.01, None)
    @example([[2, -1]], 1.0, 3)
    @example([[LOW, HIGH, 0], [HIGH, LOW], [0]], 0.01, None)
    @settings(max_examples=80, deadline=None)
    def test_output_order_bases_and_visits_match_reference(self, tx, support, max_len):
        got = assert_matches_reference(tx, support, max_len)
        assert all(len(p) <= (max_len or len(p)) for p in got.counts)

    def test_more_than_64_frequent_items(self):
        # 130 items at a count of 1: path masks span three words.
        rng = random.Random(3)
        tx = [rng.sample(range(130), 6) for _ in range(40)]
        tx += [list(range(130))[i::13] for i in range(13)]
        got = assert_matches_reference(tx, min_support=0.01)
        assert len({i for p in got.counts for i in p}) == 130

    def test_a_deep_single_path(self):
        # Every transaction is the same 12 items: one chain, 2^12 − 1 patterns.
        got = assert_matches_reference([list(range(12))] * 5, min_support=1.0)
        assert len(got.counts) == 2**12 - 1

    def test_ids_past_int64_raise(self):
        with pytest.raises(OverflowError):
            FPGrowthMiner(min_support=0.5).mine([[1, 2**63]])

    def test_every_partition_of_a_ruler_plan(self):
        # The e2e benchmark's fpgrowth data (rcv1 × 4.0), cut by a
        # Het-Aware plan with the kind's representative placement: the
        # cut the kernel bench times, at the catalogue's max_len.
        partitions, _ = ruler_plan_partitions("fpgrowth", "rcv1", 4.0)
        assert len(partitions) >= 3
        miner = build_workload("fpgrowth", 0.1).miner
        for part in partitions:
            got = assert_matches_reference(part, miner.min_support, miner.max_len)
            assert got.candidates_generated > 100


class TestKernelPieces:
    @given(st.lists(st.lists(st.integers(-5, 20), max_size=8), max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_distinct_items(self, tx):
        rows, code, items = distinct_items(tx)
        got = [(int(r), int(items[c])) for r, c in zip(rows, code)]
        assert got == [(r, v) for r, t in enumerate(tx) for v in sorted(set(t))]


class TestSortedDistinct:
    """The sort-and-dedupe that replaced flagless ``np.unique``."""

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_random_int64(self, values):
        values = np.array(values, dtype=np.int64)
        got, expected = sorted_distinct(values), np.unique(values)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "values",
        [[], [7] * 50, [-3] * 9, [-(2**63), 2**63 - 1, -1, 0, -1], list(range(100, -100, -3))],
    )
    def test_empty_all_equal_and_negative(self, values):
        values = np.array(values, dtype=np.int64)
        got = sorted_distinct(values)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(values))

    def test_leaves_its_argument_alone(self):
        values = np.array([3, 1, 3, 2], dtype=np.int64)
        sorted_distinct(values)
        assert values.tolist() == [3, 1, 3, 2]

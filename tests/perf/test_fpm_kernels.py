"""Bit-identity tests: packed-bitmap FPM kernels vs reference miners.

The bitmap kernels claim byte-for-byte equal mining output — identical
pattern dicts, candidate counts and work units — to the pure-Python
reference paths they replace. Hypothesis drives degenerate shapes
(empty transaction lists, empty transactions, duplicate items, unseen
query items, tiny supports) through both and asserts exact equality.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.perf import minhash_kernels
from repro.perf.fpm_kernels import (
    TransactionBitmap,
    candidate_supports,
    pack_transactions,
    pattern_supports,
)
from repro.workloads.fpm.apriori import AprioriMiner, count_patterns, count_patterns_reference
from repro.workloads.fpm.eclat import EclatMiner

# Small universes force dense item co-occurrence — the regime where
# candidate explosion and deep DFS actually happen.
transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=12), max_size=8),
    min_size=0,
    max_size=40,
)

support_strategy = st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0])


class TestPackTransactions:
    def test_empty_dataset(self):
        bm = pack_transactions([])
        assert bm.num_transactions == 0
        assert bm.num_items == 0

    def test_supports_match_set_semantics(self):
        bm = pack_transactions([[1, 1, 2], [2, 3], [], [1]])
        by_item = dict(zip(bm.items.tolist(), bm.supports.tolist()))
        assert by_item == {1: 2, 2: 2, 3: 1}
        assert bm.num_transactions == 4
        assert bm.total_occurrences == 5  # duplicates collapse per tx

    def test_unseen_item_maps_to_zero_sentinel(self):
        bm = pack_transactions([[1, 2], [2]])
        rows = bm.rows_for([(1, 99)])
        counts = candidate_supports(bm, rows)
        assert counts.tolist() == [0]

    @given(transactions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_word_boundaries_are_invisible(self, tx):
        # Support of every single item equals the set-semantics scan.
        bm = pack_transactions(tx)
        sets = [set(t) for t in tx]
        for item, support in zip(bm.items.tolist(), bm.supports.tolist()):
            assert support == sum(1 for s in sets if item in s)

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.integers(min_value=-3, max_value=3),
                    st.integers(min_value=-(2**63), max_value=2**63 - 1),
                ),
                max_size=8,
            ),
            max_size=140,  # past two 64-bit words of transactions
        ),
        st.sampled_from([list, tuple, set, iter]),
    )
    @example([[5, 5, 5], [], [-1, 2**63 - 1, -(2**63)]], iter)
    @settings(max_examples=60, deadline=None)
    def test_bitmap_is_the_per_transaction_set_definition(self, tx, container):
        bm = pack_transactions([container(t) for t in tx])
        sets = [set(t) for t in tx]
        items = sorted(set().union(*sets))
        assert bm.items.dtype == np.int64 and bm.items.tolist() == items
        num_words = max(1, -(-len(tx) // 64))
        assert bm.bits.dtype == np.uint64 and bm.bits.shape == (len(items) + 1, num_words)
        expected = np.zeros(bm.bits.shape, dtype=np.uint64)
        for t, s in enumerate(sets):
            for item in s:
                expected[items.index(item), t // 64] |= np.uint64(1) << np.uint64(t % 64)
        assert bm.bits.tobytes() == expected.tobytes()  # the last row is the zero sentinel
        assert bm.supports.dtype == np.int64
        assert bm.supports.tolist() == [sum(item in s for s in sets) for item in items]
        assert bm.num_transactions == len(tx)
        assert bm.total_occurrences == sum(len(s) for s in sets)

    def test_chunked_candidate_supports_agree(self):
        rng = np.random.default_rng(0)
        tx = [rng.choice(20, size=rng.integers(1, 8)).tolist() for _ in range(300)]
        bm = pack_transactions(tx)
        pairs = [(int(a), int(b)) for a in bm.items[:6] for b in bm.items[6:12]]
        rows = bm.rows_for(pairs)
        big = candidate_supports(bm, rows)
        # One popcount per block: 64 bytes hold one 5-word candidate row.
        with (
            mock.patch.object(minhash_kernels, "CHUNK_BYTES", 64),
            mock.patch.object(np, "bitwise_count", wraps=np.bitwise_count) as blocks,
        ):
            tiny = candidate_supports(bm, rows)
        assert bm.bits.shape[1] == 5 and blocks.call_count == len(pairs) == 36
        assert np.array_equal(big, tiny)


class TestAprioriEquivalence:
    @given(transactions_strategy, support_strategy)
    @example([], 0.5)
    @example([[3, 5]], 0.5)
    @settings(max_examples=40, deadline=None)
    def test_mine_matches_reference(self, tx, min_support):
        fast = AprioriMiner(min_support=min_support).mine(tx)
        ref = AprioriMiner(min_support=min_support).mine_reference(tx)
        assert fast.counts == ref.counts
        assert fast.candidates_generated == ref.candidates_generated
        assert fast.work_units == ref.work_units
        assert fast.num_transactions == ref.num_transactions

    @given(transactions_strategy, st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_max_len_matches_reference(self, tx, max_len):
        fast = AprioriMiner(min_support=0.1, max_len=max_len).mine(tx)
        ref = AprioriMiner(min_support=0.1, max_len=max_len).mine_reference(tx)
        assert fast.counts == ref.counts
        assert fast.work_units == ref.work_units


class TestEclatEquivalence:
    @given(transactions_strategy, support_strategy)
    @example([], 0.5)
    @example([[3, 5]], 0.5)
    @settings(max_examples=40, deadline=None)
    def test_mine_matches_reference(self, tx, min_support):
        fast = EclatMiner(min_support=min_support).mine(tx)
        ref = EclatMiner(min_support=min_support).mine_reference(tx)
        assert fast.counts == ref.counts
        assert fast.candidates_generated == ref.candidates_generated
        assert fast.work_units == ref.work_units

    @given(transactions_strategy)
    @settings(max_examples=25, deadline=None)
    def test_eclat_agrees_with_apriori(self, tx):
        eclat = EclatMiner(min_support=0.2).mine(tx)
        apriori = AprioriMiner(min_support=0.2).mine(tx)
        assert eclat.counts == apriori.counts


class TestCountPatternsEquivalence:
    patterns_strategy = st.lists(
        st.lists(st.integers(min_value=0, max_value=14), max_size=4).map(
            lambda xs: tuple(sorted(set(xs)))
        ),
        max_size=12,
    )

    @given(transactions_strategy, patterns_strategy)
    @example([], [(1,), (1, 2)])
    @example([[1, 2]], [(1,), (1, 2), (9,)])
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, tx, patterns):
        fast_counts, fast_work = count_patterns(tx, patterns)
        ref_counts, ref_work = count_patterns_reference(tx, patterns)
        assert fast_counts == ref_counts
        assert fast_work == ref_work

    def test_duplicate_patterns_count_per_occurrence(self):
        tx = [[1, 2], [1], [2]]
        pats = [(1,), (1,), (1, 2), ()]
        fast, fw = count_patterns(tx, pats)
        ref, rw = count_patterns_reference(tx, pats)
        assert fast == ref
        assert fw == rw
        assert fast[(1,)] == 4  # support 2 x multiplicity 2


def test_pattern_supports_handles_unseen_items():
    bm = pack_transactions([[1, 2, 3], [1, 2], [3]])
    pats = [(1,), (1, 2), (1, 99), (), (99,)]
    counts = pattern_supports(bm, pats)
    assert counts == {(1,): 2, (1, 2): 2, (1, 99): 0, (): 3, (99,): 0}


def test_bitmap_dataclass_is_frozen():
    bm = pack_transactions([[1]])
    assert isinstance(bm, TransactionBitmap)
    with pytest.raises(AttributeError):
        bm.num_transactions = 5

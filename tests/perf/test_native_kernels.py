"""Bit-identity parity suite for the native (numba) kernel tier.

The native modules import without numba — :mod:`repro.perf.native.runtime`
turns ``@njit`` into an identity decorator, so every compiled kernel
also runs interpreted with identical semantics. That makes this suite
meaningful in both CI legs: without numba it proves the *algorithms*
are bit-identical to the reference oracles; with numba installed the
same assertions run against the actually-compiled code (see
``test_njit_functions_are_compiled_when_numba_present``).

Workload-level tests force the native tier by monkeypatching
``runtime.numba_available`` — explicit ``kernel="native"`` raises when
numba is genuinely absent, which is itself asserted here.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.perf import autotune
from repro.perf.fpm_kernels import (
    candidate_supports,
    intersect_supports,
    pack_transactions,
)
from repro.perf.lz77_kernels import build_match_links, scan_matches, serialize_tokens
from repro.perf.native import runtime
from repro.perf.native import fpm_njit, kmodes_njit, lz77_njit, minhash_njit
from repro.perf.minhash_kernels import flatten_sets
from repro.stratify.kmodes import CompositeKModes
from repro.stratify.minhash import EMPTY_SLOT, PRIME, MinHasher
from repro.workloads.compression.lz77 import LZ77Codec
from repro.workloads.fpm.apriori import AprioriMiner
from repro.workloads.fpm.eclat import EclatMiner

ragged_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=2**32 - 1), max_size=30),
    min_size=0,
    max_size=25,
)

matrix_strategy = st.tuples(
    st.integers(min_value=1, max_value=60),  # rows
    st.integers(min_value=1, max_value=6),  # attrs
    st.integers(min_value=1, max_value=5),  # distinct values per attr
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
)

transactions_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=12), max_size=8),
    min_size=0,
    max_size=40,
)

# Repetitive byte strings exercise real match chains; random tails the
# literal paths and chain misses.
repetitive_strategy = st.builds(
    lambda chunks, tail: b"".join(chunks) + tail,
    st.lists(
        st.sampled_from([b"abcd", b"abcabc", b"xyzw" * 3, b"\x00\x01\x02\x03"]),
        min_size=0,
        max_size=30,
    ),
    st.binary(max_size=40),
)


@pytest.fixture
def force_native(monkeypatch):
    """Make the autotuner treat the native tier as available.

    Without numba the njit functions run interpreted — same arithmetic,
    same outputs — so parity holds in both CI legs.
    """
    monkeypatch.setattr(runtime, "numba_available", lambda: True)


class TestMinHashNativeParity:
    @given(ragged_strategy)
    @settings(max_examples=40, deadline=None)
    def test_native_matches_reference(self, sets):
        hasher = MinHasher(num_hashes=9, seed=3)
        ref = hasher.sketch_all_reference(sets)
        if len(sets) == 0:
            return
        flat, offsets = flatten_sets(sets)
        got = minhash_njit.sketch_all_native(
            flat, offsets, hasher._a, hasher._b, prime=PRIME, empty_slot=EMPTY_SLOT
        )
        assert got.dtype == ref.dtype == np.uint64
        assert np.array_equal(got, ref)

    def test_empty_sets_are_sentinel_rows(self):
        hasher = MinHasher(num_hashes=6, seed=0)
        sets = [set(), {1, 2}, set(), {3}]
        flat, offsets = flatten_sets(sets)
        got = minhash_njit.sketch_all_native(
            flat, offsets, hasher._a, hasher._b, prime=PRIME, empty_slot=EMPTY_SLOT
        )
        assert (got[[0, 2]] == EMPTY_SLOT).all()
        assert np.array_equal(got, hasher.sketch_all_reference(sets))

    def test_workload_native_tier_matches(self, force_native):
        rng = np.random.default_rng(7)
        sets = [
            rng.integers(0, 2**32, size=int(rng.integers(0, 50))).astype(np.uint64)
            for _ in range(80)
        ]
        native = MinHasher(num_hashes=16, seed=5, kernel="native").sketch_all(sets)
        ref = MinHasher(num_hashes=16, seed=5, kernel="reference").sketch_all(sets)
        assert np.array_equal(native, ref)


class TestKModesNativeParity:
    @given(matrix_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_match_counts_native_matches_reference(self, spec, num_clusters):
        n, k, card, seed = spec
        rng = np.random.default_rng(seed)
        sketches = rng.integers(0, card, size=(n, k)).astype(np.uint64)
        km = CompositeKModes(num_clusters=num_clusters, top_l=3, kernel="reference")
        centers = rng.integers(0, card, size=(num_clusters, k, 3)).astype(np.uint64)
        ref = km._match_counts_reference(sketches, centers)
        got = kmodes_njit.match_counts_native(sketches, centers)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)

    def test_fit_native_tier_matches_reference(self, force_native):
        rng = np.random.default_rng(11)
        sketches = rng.integers(0, 5, size=(120, 4)).astype(np.uint64)
        res_native = CompositeKModes(num_clusters=4, seed=2, kernel="native").fit(sketches)
        res_ref = CompositeKModes(num_clusters=4, seed=2, kernel="reference").fit(sketches)
        assert np.array_equal(res_native.labels, res_ref.labels)
        assert np.array_equal(res_native.centers, res_ref.centers)
        assert res_native.cost == res_ref.cost
        assert res_native.iterations == res_ref.iterations


class TestFPMNativeParity:
    @given(transactions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_candidate_supports_native_matches_numpy(self, transactions):
        bitmap = pack_transactions(transactions)
        if bitmap.num_items == 0:
            return
        rng = np.random.default_rng(0)
        cands = rng.integers(
            0, bitmap.num_items, size=(12, 2), dtype=np.int64
        )
        ref = candidate_supports(bitmap, cands)
        got = fpm_njit.candidate_supports_native(bitmap, cands)
        assert np.array_equal(got, ref)

    @given(transactions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_intersect_supports_native_matches_numpy(self, transactions):
        bitmap = pack_transactions(transactions)
        if bitmap.num_items == 0:
            return
        prefix = bitmap.bits[0]
        ext = np.arange(bitmap.num_items, dtype=np.int64)
        ref_inter, ref_sup = intersect_supports(prefix, ext, bitmap)
        got_inter, got_sup = fpm_njit.intersect_supports_native(prefix, ext, bitmap)
        assert np.array_equal(got_inter, ref_inter)
        assert np.array_equal(got_sup, ref_sup)

    def test_empty_and_zero_length_candidates(self):
        bitmap = pack_transactions([{1, 2}, {2, 3}])
        none = fpm_njit.candidate_supports_native(
            bitmap, np.empty((0, 2), dtype=np.int64)
        )
        assert none.size == 0
        empty_itemsets = fpm_njit.candidate_supports_native(
            bitmap, np.empty((3, 0), dtype=np.int64)
        )
        assert np.array_equal(empty_itemsets, np.full(3, 2, dtype=np.int64))

    @given(transactions_strategy, st.floats(min_value=0.1, max_value=1.0))
    @example([], 0.5)
    @example([{3, 5}], 0.5)
    @settings(max_examples=25, deadline=None)
    def test_apriori_native_matches_reference(self, transactions, min_support):
        runtime_available = runtime.numba_available
        try:
            runtime.numba_available = lambda: True
            native = AprioriMiner(
                min_support=min_support, kernel="native"
            ).mine(transactions)
        finally:
            runtime.numba_available = runtime_available
        ref = AprioriMiner(min_support=min_support, kernel="reference").mine(
            transactions
        )
        assert native.counts == ref.counts
        assert native.candidates_generated == ref.candidates_generated
        assert native.work_units == ref.work_units

    @given(transactions_strategy, st.floats(min_value=0.1, max_value=1.0))
    @example([], 0.5)
    @example([{3, 5}], 0.5)
    @settings(max_examples=25, deadline=None)
    def test_eclat_native_matches_reference(self, transactions, min_support):
        runtime_available = runtime.numba_available
        try:
            runtime.numba_available = lambda: True
            native = EclatMiner(
                min_support=min_support, kernel="native"
            ).mine(transactions)
        finally:
            runtime.numba_available = runtime_available
        ref = EclatMiner(min_support=min_support, kernel="reference").mine(
            transactions
        )
        assert native.counts == ref.counts
        assert native.work_units == ref.work_units


class TestLZ77NativeParity:
    @given(
        repetitive_strategy,
        st.sampled_from([8, 64, 1 << 15]),
        st.sampled_from([1, 4, 16]),
        st.sampled_from([8, 255]),
    )
    @settings(max_examples=40, deadline=None)
    def test_native_scan_matches_numpy_scan(self, data, window, max_chain, max_match):
        links = build_match_links(data)
        ref = scan_matches(
            data, links, window=window, max_chain=max_chain, max_match=max_match
        )
        got = lz77_njit.scan_matches_native(
            data, links, window=window, max_chain=max_chain, max_match=max_match
        )
        assert list(got[0]) == list(ref[0])
        assert list(got[1]) == list(ref[1])
        assert list(got[2]) == list(ref[2])
        assert got[3] == ref[3]

    @given(repetitive_strategy)
    @example(b"")
    @example(b"a")
    @settings(max_examples=30, deadline=None)
    def test_native_blob_matches_reference_coder(self, data):
        codec = LZ77Codec(window=64, max_chain=8, max_match=32, kernel="reference")
        ref_blob, ref_stats = codec.compress(data)
        links = build_match_links(data)
        m_pos, m_dist, m_len, probes = lz77_njit.scan_matches_native(
            data, links, window=64, max_chain=8, max_match=32
        )
        blob, counters = serialize_tokens(data, m_pos, m_dist, m_len, probes)
        assert blob == ref_blob
        assert counters["matches"] == ref_stats.matches
        assert counters["literals"] == ref_stats.literals
        assert counters["probes"] == ref_stats.probes
        assert codec.decompress(blob) == data

    def test_codec_native_tier_round_trips(self, force_native):
        data = b"the quick brown fox " * 50 + b"jumps over the lazy dog"
        codec = LZ77Codec(kernel="native")
        blob, stats = codec.compress(data)
        ref_blob, ref_stats = LZ77Codec(kernel="reference").compress(data)
        assert blob == ref_blob
        assert stats == ref_stats
        assert codec.decompress(blob) == data


class TestNativeTierContract:
    def test_explicit_native_without_numba_raises(self, monkeypatch):
        monkeypatch.setattr(runtime, "numba_available", lambda: False)
        with pytest.raises(RuntimeError, match="native"):
            autotune.resolve_tier("native", kind="minhash", work=10**6)

    def test_njit_functions_are_compiled_when_numba_present(self):
        if not runtime.numba_available():
            pytest.skip("numba not installed; interpreted fallback in use")
        # numba dispatchers expose the original function as py_func.
        for fn in (
            minhash_njit._sketch_sets,
            kmodes_njit._match_counts,
            fpm_njit._candidate_supports,
            fpm_njit._intersect_supports,
            fpm_njit._popcount,
            lz77_njit._scan,
        ):
            assert hasattr(fn, "py_func")

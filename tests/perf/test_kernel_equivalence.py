"""Golden-equivalence property tests for the batched kernels.

Every kernel in :mod:`repro.perf` claims *bit-identical* output to the
reference implementation it replaces. These tests hold it to that:
hypothesis drives ragged/degenerate inputs (empty sets, single
elements, heavy value ties, chunk boundaries) through both paths and
asserts exact array equality — no tolerances.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.perf import minhash_kernels
from repro.perf.kmodes_kernels import (
    FitBuffers,
    code_sketches,
    distinct_rows,
    factorize_columns,
    match_counts_coded,
    top_l_centers,
)
from repro.perf.minhash_kernels import as_uint64_elements, flatten_sets
from repro.stratify.kmodes import _FILL, CompositeKModes
from repro.stratify.minhash import EMPTY_SLOT, MinHasher

# Ragged datasets: lists of sets over the full 32-bit universe,
# including empty sets (which must round-trip as sentinel rows).
ragged_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=2**32 - 1), max_size=30),
    min_size=0,
    max_size=25,
)

# Low-cardinality matrices force repeated values per attribute — the
# Counter tie-break regime where a subtly wrong ordering would show.
matrix_strategy = st.tuples(
    st.integers(min_value=1, max_value=60),  # rows
    st.integers(min_value=1, max_value=6),  # attrs
    st.integers(min_value=1, max_value=5),  # distinct values per attr
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
)


def _low_card_matrix(n, k, card, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, card, size=(n, k)).astype(np.uint64)


#: ``matrix_strategy`` specs that drive ``fit``'s incremental update
#: through its edge cases (``test_fit_examples_reach_their_edge_case``
#: checks each still does).
FIT_EXAMPLES = {
    "k_exceeds_distinct_rows": (8, 2, 2, 33),
    "one_row_moves": (7, 2, 4, 31),
    "cluster_empties": (7, 3, 3, 74),
}


def _fit_kwargs(seed):
    return dict(num_clusters=5, top_l=2, seed=seed % 1000, max_iter=30)


def _patch_chunk(value):
    """Patch the chunked kernels' shared ceiling, which they read at call time."""
    return mock.patch.object(minhash_kernels, "CHUNK_BYTES", value)


@contextmanager
def _sketch_windows(ceiling):
    """Sketch under ``CHUNK_BYTES = ceiling``; yields a list that
    gets one entry per window the kernel hashes."""
    windows = []
    hash_distinct = minhash_kernels._hash_distinct

    def spy(values, *args):
        windows.append(values.size)
        return hash_distinct(values, *args)

    with _patch_chunk(ceiling), mock.patch.object(minhash_kernels, "_hash_distinct", spy):
        yield windows


def _window_count(sets, num_hashes, ceiling):
    """Windows of ``ceiling / 8k`` elements over every set's pivots."""
    return -(-sum(len(s) for s in sets) // max(1, ceiling // (8 * num_hashes)))


def _block_rows(n, k, ceiling):
    """Rows per block of the code-space matcher under ``ceiling``."""
    return max(1, min(n, ceiling // (8 * min(k, 255))))


class TestSketchBatchEquivalence:
    @given(ragged_strategy, st.sampled_from([64, 1024, 8 * 1024 * 1024]))
    @example([], 64)
    @example([set()], 64)
    @example([{7}], 64)
    @example([set(range(40))], 1024)
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_per_set(self, sets, ceiling):
        hasher = MinHasher(num_hashes=9, seed=3)
        with _sketch_windows(ceiling) as windows:
            got = hasher.sketch_all(sets)
        # 64 bytes is one pivot per window, 1,024 fourteen.
        assert len(windows) == _window_count(sets, 9, ceiling)
        ref = hasher.sketch_all_reference(sets)
        assert got.dtype == ref.dtype == np.uint64
        assert np.array_equal(got, ref)

    @given(
        st.lists(st.lists(st.integers(0, 20), max_size=30), max_size=25),
        st.sampled_from([64, 1024, 8 * 1024 * 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_shared_and_repeated_pivots_match_per_set(self, sets, ceiling):
        # Pivots recur across sets and within one: each window hashes a
        # distinct value once and gathers it back for every element.
        hasher = MinHasher(num_hashes=9, seed=3)
        with _sketch_windows(ceiling) as windows:
            got = hasher.sketch_all(sets)
        assert len(windows) == _window_count(sets, 9, ceiling)
        assert np.array_equal(got, hasher.sketch_all_reference(sets))

    @given(ragged_strategy)
    @settings(max_examples=20, deadline=None)
    def test_chunking_is_invisible(self, sets):
        hasher = MinHasher(num_hashes=7, seed=1)
        with _sketch_windows(64) as windows:
            tiny = hasher.sketch_all(sets)
        assert len(windows) == sum(len(s) for s in sets)  # one pivot per window
        assert np.array_equal(tiny, hasher.sketch_all(sets))

    def test_ndarray_list_set_inputs_agree(self):
        rng = np.random.default_rng(0)
        arrays = [
            rng.integers(0, 2**32, size=int(rng.integers(0, 40))).astype(np.uint64)
            for _ in range(30)
        ]
        hasher = MinHasher(num_hashes=16, seed=5)
        as_arrays = hasher.sketch_all(arrays)
        as_lists = hasher.sketch_all([[int(v) for v in a] for a in arrays])
        assert np.array_equal(as_arrays, as_lists)

    def test_empty_sets_are_sentinel_rows(self):
        hasher = MinHasher(num_hashes=6, seed=0)
        got = hasher.sketch_all([set(), {1, 2}, set(), set(), {3}])
        assert (got[[0, 2, 3]] == EMPTY_SLOT).all()
        assert np.array_equal(got, hasher.sketch_all_reference([set(), {1, 2}, set(), set(), {3}]))

    def test_out_of_universe_rejected_in_batch(self):
        with pytest.raises(ValueError):
            MinHasher(num_hashes=4).sketch_all([{1}, {2**32}])

    def test_concurrent_sketch_all_is_race_free(self):
        # Callers may sketch from several threads at once (the service
        # runs jobs on manager threads); the kernel writes through `out=`
        # into buffers of its own call, and a buffer shared across calls
        # would let concurrent writes corrupt each other's hashes
        # nondeterministically. A small CHUNK_BYTES forces many windows
        # per call to maximise interleaving.
        import threading

        rng = np.random.default_rng(12)
        sets = [
            rng.integers(0, 2**32, size=int(rng.integers(5, 60))).astype(np.uint64)
            for _ in range(400)
        ]
        hasher = MinHasher(num_hashes=16, seed=2)
        with _sketch_windows(2048) as windows:
            expected = hasher.sketch_all(sets)
        assert len(windows) == _window_count(sets, 16, 2048) > 1
        results: dict[int, np.ndarray] = {}

        def work(tid: int) -> None:
            for _ in range(5):
                results[tid] = hasher.sketch_all(sets)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        with _patch_chunk(2048):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for tid, got in results.items():
            assert np.array_equal(got, expected), f"thread {tid} diverged"


class TestElementCoercion:
    def test_integer_ndarray_fast_path_no_copy(self):
        arr = np.array([1, 2, 3], dtype=np.uint64)
        out = as_uint64_elements(arr)
        assert out is arr or out.base is arr

    def test_signed_ndarray_cast(self):
        out = as_uint64_elements(np.array([5, 0, 9], dtype=np.int32))
        assert out.dtype == np.uint64 and list(out) == [5, 0, 9]

    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            as_uint64_elements(np.array([1, -2], dtype=np.int64))

    def test_generic_iterable_fallback(self):
        out = as_uint64_elements(iter([7, 8]))
        assert out.dtype == np.uint64 and list(out) == [7, 8]

    def test_flatten_offsets(self):
        flat, offsets = flatten_sets([[1, 2], [], [3]])
        assert list(offsets) == [0, 2, 2, 3]
        assert list(flat) == [1, 2, 3]


class TestKModesEquivalence:
    @given(matrix_strategy, st.sampled_from([8, 256, 8 * 1024 * 1024]))
    @example((1, 3, 1, 0), 8)  # one row; an empty matrix is rejected before dispatch
    @example(FIT_EXAMPLES["k_exceeds_distinct_rows"], 8)
    @example(FIT_EXAMPLES["one_row_moves"], 8)
    @example(FIT_EXAMPLES["cluster_empties"], 8)
    @settings(max_examples=25, deadline=None)
    def test_fit_matches_reference(self, spec, ceiling):
        n, k, card, seed = spec
        data = _low_card_matrix(n, k, card, seed)
        kwargs = _fit_kwargs(seed)
        made = []
        for_coded = FitBuffers.for_coded

        def spy(coded):
            made.append(for_coded(coded))
            return made[-1]

        with _patch_chunk(ceiling), mock.patch.object(FitBuffers, "for_coded", spy):
            batched = CompositeKModes(**kwargs).fit(data)
        # 8 bytes is one row per block; 256 is 32 // k rows.
        assert [b.sums.size for b in made] == [_block_rows(n, k, ceiling)]
        reference = CompositeKModes(**kwargs).fit_reference(data)
        assert np.array_equal(batched.labels, reference.labels)
        assert np.array_equal(batched.centers, reference.centers)
        assert batched.cost == reference.cost
        assert batched.iterations == reference.iterations
        assert batched.converged == reference.converged

    @pytest.mark.parametrize("case", sorted(FIT_EXAMPLES))
    def test_fit_examples_reach_their_edge_case(self, case):
        n, k, card, seed = FIT_EXAMPLES[case]
        data = _low_card_matrix(n, k, card, seed)
        km = CompositeKModes(**_fit_kwargs(seed))
        rounds = []
        update = km._update_centers_reference

        def spy(sketches, labels, centers):
            rounds.append(labels.copy())
            return update(sketches, labels, centers)

        km._update_centers_reference = spy
        km.fit_reference(data)
        moved = [int((a != b).sum()) for a, b in zip(rounds, rounds[1:])]
        emptied = [set(a.tolist()) - set(b.tolist()) for a, b in zip(rounds, rounds[1:])]
        reached = {
            "k_exceeds_distinct_rows": np.unique(data, axis=0).shape[0] < min(5, n) and moved,
            "one_row_moves": 1 in moved,
            "cluster_empties": any(emptied),
        }
        assert reached[case]

    @given(matrix_strategy, st.integers(min_value=1, max_value=7), st.sampled_from([1, 64, 1 << 23]))
    @settings(max_examples=40, deadline=None)
    def test_code_space_kernels_match_the_python_oracles(self, spec, num_clusters, ceiling):
        # One step of fit, driven by hand: random labels (ties, and with
        # 7 clusters over few rows, empty clusters and n < K), stale
        # centres to keep, then a match against the updated centres —
        # for every cluster, and for a subset given its members only.
        # CHUNK_BYTES = 1 is one row per block; 64 a handful.
        n, k, card, seed = spec
        data = _low_card_matrix(n, k, card, seed)
        rng = np.random.default_rng(seed)
        if seed % 3 == 0:
            data[rng.integers(0, n)] = EMPTY_SLOT  # an empty set's sketch row
        top_l = 1 + seed % 3
        oracle = CompositeKModes(num_clusters=num_clusters, top_l=top_l)
        coded = code_sketches(data, num_clusters)
        ids = coded.column_ids.T
        labels = rng.integers(0, num_clusters, size=n).astype(np.int64)
        stale = np.full((num_clusters, k, top_l), _FILL, dtype=np.uint64)
        stale_ids = np.full(stale.shape, -1, dtype=np.int64)
        seed_rows = rng.integers(0, n, size=num_clusters)
        stale[:, :, 0] = data[seed_rows]
        stale_ids[:, :, 0] = ids[seed_rows]

        centers, center_ids = top_l_centers(
            coded, labels, np.arange(n), stale, stale_ids, top_l=top_l, fill=_FILL
        )
        assert np.array_equal(centers, oracle._update_centers_reference(data, labels, stale))
        # The id array is the value array, slot for slot.
        assert np.array_equal(center_ids >= 0, centers != _FILL)
        assert np.array_equal(coded.values[center_ids[center_ids >= 0]], centers[centers != _FILL])

        subset = rng.random(num_clusters) < 0.5
        part, part_ids = top_l_centers(
            coded, labels, np.flatnonzero(subset[labels]), stale, stale_ids, top_l=top_l, fill=_FILL
        )
        assert np.array_equal(part[subset], centers[subset])
        assert np.array_equal(part_ids[subset], center_ids[subset])
        assert np.array_equal(part[~subset], stale[~subset])
        assert np.array_equal(part_ids[~subset], stale_ids[~subset])

        expected = oracle._match_counts_reference(data, centers)
        columns = np.flatnonzero(subset)
        with _patch_chunk(ceiling):
            got = match_counts_coded(coded, center_ids)
            assert np.array_equal(got, expected)
            got = match_counts_coded(coded, center_ids[columns])
            assert np.array_equal(got, expected[:, columns])
            shared = FitBuffers.for_coded(coded)
        assert shared.sums.size == _block_rows(n, k, ceiling)

        # The same steps through one set of buffers, each step leaving
        # them dirty for the next as a fit's rounds do; the lane table
        # is clean again after every match.
        for _ in range(2):
            again = top_l_centers(
                coded, labels, np.arange(n), stale, stale_ids, top_l=top_l, fill=_FILL,
                buffers=shared,
            )
            assert all(np.array_equal(a, b) for a, b in zip(again, (centers, center_ids)))
            got = match_counts_coded(coded, center_ids[columns], buffers=shared)
            assert np.array_equal(got, expected[:, columns])
            assert not shared.lanes.any()

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1, 3, 300, 2**40]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(5, 3, 1, 0)  # every row the same
    @settings(max_examples=40, deadline=None)
    def test_factorised_ids_and_distinct_rows_match_numpy(self, n, k, card, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, card, size=(n, k)).astype(np.uint64)
        data[rng.random((n, k)) < 0.1] = EMPTY_SLOT  # the top of uint64
        column_ids, col_offsets, values = factorize_columns(data)
        for attr in range(k):
            uniq, inverse = np.unique(data[:, attr], return_inverse=True)
            assert np.array_equal(values[col_offsets[attr] : col_offsets[attr + 1]], uniq)
            assert np.array_equal(column_ids[attr] - col_offsets[attr], inverse)
        expected = np.unique(data, axis=0, return_index=True)[1]
        assert np.array_equal(distinct_rows(column_ids, col_offsets), expected)

    def test_matcher_sums_more_than_255_attributes(self):
        # Byte lanes hold at most 255, so attributes are summed in slabs.
        data = _low_card_matrix(9, 600, 2, seed=4)
        coded = code_sketches(data, 3)
        centers = np.full((3, 600, 2), _FILL, dtype=np.uint64)
        centers[:, :, 0] = data[:3]
        center_ids = np.full(centers.shape, -1, dtype=np.int64)
        center_ids[:, :, 0] = coded.column_ids[:, :3].T
        got = match_counts_coded(coded, center_ids)
        assert np.array_equal(got, CompositeKModes()._match_counts_reference(data, centers))
        assert got.max() == 600

    def test_top_l_raises_rather_than_wrap_int64(self):
        # Two rows, one attribute — and 2**64 clusters, which with the
        # row bit no longer fit a 64-bit sort key.
        data = np.zeros((2, 1), dtype=np.uint64)
        with pytest.raises(OverflowError, match="64 bits"):
            code_sketches(data, 2**64)
        coded = code_sketches(data, 2)
        old = np.full((4, 1, 1), _FILL, dtype=np.uint64)
        with pytest.raises(ValueError, match="at most 2 clusters"):
            top_l_centers(
                coded, np.zeros(2, dtype=np.int64), np.arange(2), old,
                np.full(old.shape, -1, dtype=np.int64), top_l=1, fill=_FILL,
            )

    def test_unconverged_fit_costs_the_final_centres(self):
        # Out of rounds, fit's last act was an update: the cost must be
        # that of the returned centres, not of the ones matched before.
        data = _low_card_matrix(120, 6, 5, seed=2)
        km = CompositeKModes(num_clusters=6, top_l=2, seed=3, max_iter=1)
        for result in (km.fit(data), km.fit_reference(data)):
            assert not result.converged and result.iterations == 1
            counts = km._match_counts_reference(data, result.centers)
            assert result.cost == float(np.sum(6 - counts[np.arange(120), result.labels]))

"""Unit and property tests for MinHash sketching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stratify.minhash import (
    EMPTY_SLOT,
    PRIME,
    MinHasher,
    _is_prime,
    jaccard,
    sketch_jaccard,
)

sets_strategy = st.sets(st.integers(min_value=0, max_value=2**32 - 1), max_size=40)


class TestPrime:
    def test_constant_is_prime(self):
        assert _is_prime(PRIME)

    def test_prime_exceeds_universe(self):
        assert PRIME > 2**32

    def test_is_prime_basics(self):
        assert _is_prime(2) and _is_prime(3) and _is_prime(97)
        assert not _is_prime(1) and not _is_prime(91) and not _is_prime(0)


class TestExactJaccard:
    def test_identical(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert jaccard({1}, {2}) == 0.0

    def test_partial(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard(set(), set()) == 1.0


class TestSketching:
    def test_deterministic_given_seed(self):
        h1, h2 = MinHasher(32, seed=7), MinHasher(32, seed=7)
        s = {1, 5, 9}
        assert np.array_equal(h1.sketch(s), h2.sketch(s))

    def test_different_seeds_differ(self):
        s = set(range(100))
        assert not np.array_equal(
            MinHasher(32, seed=1).sketch(s), MinHasher(32, seed=2).sketch(s)
        )

    def test_sketch_length(self):
        assert MinHasher(17).sketch({1}).shape == (17,)

    def test_empty_set_sentinel(self):
        sk = MinHasher(8).sketch(set())
        assert (sk == EMPTY_SLOT).all()

    def test_identical_empty_sets_match(self):
        h = MinHasher(8)
        assert sketch_jaccard(h.sketch(set()), h.sketch(set())) == 1.0

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError):
            MinHasher(8).sketch({2**32})

    @pytest.mark.parametrize(
        "elements",
        [
            pytest.param(container([bad, 2]), id=f"{container.__name__}{bad}")
            for bad in (-1, 2**32, 2**64)
            for container in (set, list, tuple)
        ]
        + [
            pytest.param(np.array([-1, 2], dtype=np.int64), id="int64-1"),
            pytest.param(np.array([2**32, 2], dtype=np.int64), id="int64-2**32"),
            pytest.param(np.array([2**64, 2], dtype=object), id="object-2**64"),
        ],
    )
    def test_same_error_whatever_the_container(self, elements):
        # Used to depend on the container: a set with -1 died with a
        # bare OverflowError from np.fromiter, an ndarray with ValueError.
        h = MinHasher(4)
        for call in (
            lambda: h.sketch(elements),
            lambda: h.sketch_all([{1}, elements]),
            lambda: h.sketch_all_reference([{1}, elements]),
        ):
            with pytest.raises(ValueError, match="outside the pivot universe"):
                call()

    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_sketch_flat_checks_the_universe(self, bad):
        flat = np.array([1, bad, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="outside the pivot universe"):
            MinHasher(4).sketch_flat(flat, np.array([0, 1, 3]))

    @pytest.mark.parametrize("offsets", [[], [1, 3], [0, 2], [0, 4], [0, 2, 1, 3], [[0, 3]]])
    def test_sketch_flat_rejects_offsets_that_do_not_tile_flat(self, offsets):
        with pytest.raises(ValueError, match="offsets"):
            MinHasher(4).sketch_flat(np.array([1, 2, 3]), np.array(offsets, dtype=np.int64))

    def test_sketch_flat_is_sketch_all(self):
        h = MinHasher(8, seed=2)
        sets = [{1, 2}, set(), {3}, {2**32 - 1, 0}]
        # Signed or unsigned, duplicates or not: the same sketches.
        flat = np.array([2, 1, 1, 3, 0, 2**32 - 1, 0], dtype=np.int64)
        offsets = np.array([0, 3, 3, 4, 7])
        for arr in (flat, flat.astype(np.uint64)):
            assert np.array_equal(h.sketch_flat(arr, offsets), h.sketch_all_reference(sets))
        assert h.sketch_flat(flat[:0], offsets[:1]).shape == (0, 8)

    def test_invalid_num_hashes(self):
        with pytest.raises(ValueError):
            MinHasher(0)

    def test_sketch_all_shape(self):
        h = MinHasher(16)
        mat = h.sketch_all([{1}, {2}, {3}])
        assert mat.shape == (3, 16)

    def test_sketch_all_empty_dataset(self):
        assert MinHasher(16).sketch_all([]).shape == (0, 16)

    def test_identical_sets_identical_sketches(self):
        h = MinHasher(64)
        assert sketch_jaccard(h.sketch({3, 4}), h.sketch({4, 3})) == 1.0


class TestEstimation:
    def test_estimator_accuracy(self):
        # Two sets with known Jaccard 0.5; k=512 gives stderr ~0.022.
        x = set(range(200))
        y = set(range(100, 300))
        h = MinHasher(512, seed=3)
        est = sketch_jaccard(h.sketch(x), h.sketch(y))
        assert abs(est - jaccard(x, y)) < 0.08

    def test_disjoint_sets_estimate_near_zero(self):
        h = MinHasher(256, seed=5)
        est = sketch_jaccard(h.sketch(set(range(100))), h.sketch(set(range(1000, 1100))))
        assert est < 0.05

    @given(sets_strategy, sets_strategy)
    @settings(max_examples=30)
    def test_estimate_in_unit_interval(self, x, y):
        h = MinHasher(32, seed=11)
        est = sketch_jaccard(h.sketch(x), h.sketch(y))
        assert 0.0 <= est <= 1.0

    def test_mismatched_sketches_rejected(self):
        with pytest.raises(ValueError):
            sketch_jaccard(np.zeros(4, dtype=np.uint64), np.zeros(5, dtype=np.uint64))

    def test_empty_sketches_rejected(self):
        with pytest.raises(ValueError):
            sketch_jaccard(np.array([]), np.array([]))


class TestPermutationProperty:
    def test_hash_is_injective_on_sample(self):
        # h(x) = (a x + b) mod P is a permutation of Z_P: no collisions.
        h = MinHasher(1, seed=13)
        a, b = int(h._a[0]), int(h._b[0])
        values = [(a * x + b) % PRIME for x in range(5000)]
        assert len(set(values)) == 5000

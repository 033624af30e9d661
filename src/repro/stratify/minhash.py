"""MinHash sketching via min-wise independent linear permutations.

Implements the sketching step of the stratifier. Rather than the exact
min-wise independent permutation family of Broder et al. (expensive for
a ``2**32`` universe), the paper uses the *linear* approximation of
Bohman, Cooper and Frieze: ``h(x) = (a·x + b) mod P`` for a prime
``P`` just above the universe size. A sketch is the vector of minima of
``k`` such permutations over a set; the fraction of agreeing positions
between two sketches is an unbiased estimator of their Jaccard
similarity.

Everything is vectorised: a set of ``n`` elements is sketched with one
``(n, k)`` broadcasted multiply-add, and whole datasets are sketched by
the ragged-batch kernel in :mod:`repro.perf.minhash_kernels` — all sets
concatenated into one flat array, hashed in memory-bounded chunks, and
reduced per set with ``np.minimum.reduceat``. The per-set path is kept
as the oracle the batch kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.perf.minhash_kernels import (
    as_uint64_elements,
    flatten_sets,
    hash_elements,
    sketch_batch,
)
from repro.stratify.pivots import UNIVERSE_SIZE

#: Smallest prime exceeding the 2**32 pivot universe.
MERSENNE_PRIME_CANDIDATE = (1 << 32) + 15


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


assert _is_prime(MERSENNE_PRIME_CANDIDATE), "prime constant broken"

PRIME = MERSENNE_PRIME_CANDIDATE

#: Sentinel sketch value for the empty set (larger than any hash value).
EMPTY_SLOT = np.iinfo(np.uint64).max


def jaccard(x: Iterable[int], y: Iterable[int]) -> float:
    """Exact Jaccard similarity ``|x ∩ y| / |x ∪ y|`` of two sets."""
    sx, sy = set(x), set(y)
    if not sx and not sy:
        return 1.0
    return len(sx & sy) / len(sx | sy)


def sketch_jaccard(sk_x: np.ndarray, sk_y: np.ndarray) -> float:
    """Estimate Jaccard similarity as the fraction of matching slots."""
    sk_x = np.asarray(sk_x)
    sk_y = np.asarray(sk_y)
    if sk_x.shape != sk_y.shape:
        raise ValueError("sketches must have equal length")
    if sk_x.size == 0:
        raise ValueError("sketches must be non-empty")
    return float(np.mean(sk_x == sk_y))


@dataclass
class MinHasher:
    """A family of ``k`` min-wise independent linear permutations.

    Parameters
    ----------
    num_hashes:
        Sketch length ``k``. Estimator std-err is ``~1/sqrt(k)``.
    seed:
        Seed for drawing the permutation coefficients; two hashers with
        the same seed produce identical, comparable sketches.
    """

    num_hashes: int = 64
    seed: int = 0
    _a: np.ndarray = field(init=False, repr=False)
    _b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        rng = np.random.default_rng(self.seed)
        # a must be non-zero mod P for h to be a permutation.
        self._a = rng.integers(1, PRIME, size=self.num_hashes, dtype=np.uint64)
        self._b = rng.integers(0, PRIME, size=self.num_hashes, dtype=np.uint64)

    def sketch(self, items: Iterable[int]) -> np.ndarray:
        """Sketch one set: ``min over x of (a·x + b) mod P`` per slot.

        The empty set sketches to all :data:`EMPTY_SLOT` sentinels, which
        never collide with real hash values (< PRIME < 2**64 - 1).
        Integer ndarrays skip the per-element conversion entirely.
        """
        arr = as_uint64_elements(items)
        if arr.size == 0:
            return np.full(self.num_hashes, EMPTY_SLOT, dtype=np.uint64)
        if int(arr.max()) >= UNIVERSE_SIZE:
            raise ValueError("element outside the pivot universe")
        # a*x can exceed 64 bits for 32-bit universes (a < 2**32+16,
        # x < 2**32 → product < 2**64.01); hash_elements computes the
        # modulo arithmetic in two uint64-safe halves.
        return hash_elements(arr, self._a, self._b, PRIME).min(axis=0)

    def sketch_all(self, sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Sketch a dataset; returns an ``(n_items, k)`` uint64 matrix.

        Flattens ``sets`` and sketches the ragged batch with
        :meth:`sketch_flat`; bit-identical to sketching each set with
        :meth:`sketch` (see :meth:`sketch_all_reference`).
        """
        return self.sketch_flat(*flatten_sets(sets))

    def sketch_flat(self, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Sketch a ragged batch: set ``i`` is ``flat[offsets[i]:offsets[i + 1]]``.

        The entry :meth:`sketch_all` and the stratifier share
        (``PivotExtractor.extract_flat`` already returns this layout):
        the ragged-batch kernel (chunked broadcasted hashing,
        ``np.minimum.reduceat``). Duplicate elements inside a set are
        allowed.
        """
        flat = as_uint64_elements(np.asarray(flat))
        offsets = np.asarray(offsets, dtype=np.int64)
        if (
            offsets.ndim != 1
            or offsets.size == 0
            or offsets[0] != 0
            or offsets[-1] != flat.size
            or (np.diff(offsets) < 0).any()
        ):
            raise ValueError("offsets must rise from 0 to len(flat)")
        if offsets.size == 1:
            return np.empty((0, self.num_hashes), dtype=np.uint64)
        if flat.size and int(flat.max()) >= UNIVERSE_SIZE:
            raise ValueError("element outside the pivot universe")
        return sketch_batch(
            flat, offsets, self._a, self._b, prime=PRIME, empty_slot=EMPTY_SLOT
        )

    def sketch_all_reference(self, sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Per-set reference for :meth:`sketch_all` — the oracle the
        batch kernel is benchmarked and property-tested against."""
        if len(sets) == 0:
            return np.empty((0, self.num_hashes), dtype=np.uint64)
        return np.stack([self.sketch(s) for s in sets])

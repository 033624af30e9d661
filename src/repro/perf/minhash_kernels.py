"""Ragged-batch MinHash kernels.

The reference :meth:`MinHasher.sketch` hashes one set at a time: an
``(n, k)`` broadcasted multiply-add per set, with a Python-level loop
across sets in ``sketch_all``. For the datasets the paper stratifies
(10⁴–10⁶ pivot sets of a few dozen elements each) the per-set loop and
``np.fromiter`` conversion dominate. The batch kernel here removes
both: all pivot sets are concatenated into one flat ``uint64`` array
with CSR-style offsets and sketched in memory-bounded windows. A window
hashes each distinct pivot it holds once, gathers the hashes back into
element order and takes per-set minima with ``np.minimum.reduceat``.
Its temporaries are freed when the call returns.

Kernels take the permutation coefficients and modulus as arguments
rather than importing them, so this module depends only on numpy and
cannot form an import cycle with ``repro.stratify``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: Ceiling on the largest temporary of every chunked kernel (sketch
#: windows, k-modes row blocks, FPM candidate blocks), read at call time.
#: A sketch window is ``CHUNK_BYTES / 8k`` elements, about twenty
#: thousand at 48 hashes: large enough that per-window numpy dispatch
#: and re-hashing a pivot that recurs in the next window stay small.
CHUNK_BYTES = 8 * 1024 * 1024

_SIXTEEN = np.uint64(16)
_LOW_MASK = np.uint64(0xFFFF)
_THIRTY_TWO = np.uint64(32)


def as_uint64_elements(items: Iterable[int]) -> np.ndarray:
    """Coerce one pivot set to a flat ``uint64`` array.

    Integer ndarrays take a zero-copy (or single-cast) fast path;
    anything else goes through the reference per-element conversion.
    Negative elements are rejected rather than wrapped so the universe
    bound check downstream stays meaningful — with the same
    ``ValueError`` whichever container they arrive in.
    """
    if isinstance(items, np.ndarray) and np.issubdtype(items.dtype, np.integer):
        arr = items.ravel()
        if np.issubdtype(arr.dtype, np.signedinteger) and arr.size and int(arr.min()) < 0:
            raise ValueError("element outside the pivot universe")
        return arr.astype(np.uint64, copy=False)
    try:
        return np.fromiter((int(v) for v in items), dtype=np.uint64)
    except OverflowError:  # negative, or beyond 64 bits
        raise ValueError("element outside the pivot universe") from None


def flatten_sets(sets: Sequence[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate pivot sets into ``(flat, offsets)``.

    ``flat`` holds every element back to back; set ``i`` occupies
    ``flat[offsets[i]:offsets[i + 1]]``. Empty sets occupy zero
    elements (consecutive equal offsets).
    """
    n = len(sets)
    offsets = np.zeros(n + 1, dtype=np.int64)
    if n == 0:
        return np.empty(0, dtype=np.uint64), offsets
    if all(isinstance(s, np.ndarray) and s.dtype == np.uint64 for s in sets):
        # Already-converted sets (the stratifier's own pivot arrays):
        # concatenate without the per-set coercion call.
        chunks = sets
    else:
        chunks = [as_uint64_elements(s) for s in sets]
    np.cumsum([c.size for c in chunks], out=offsets[1:])
    flat = (
        np.concatenate([c.ravel() for c in chunks])
        if offsets[-1]
        else np.empty(0, dtype=np.uint64)
    )
    return flat, offsets


def hash_elements(arr: np.ndarray, a: np.ndarray, b: np.ndarray, prime: int) -> np.ndarray:
    """Apply ``k`` linear permutations to ``m`` elements → ``(m, k)``.

    Identical arithmetic to the reference ``MinHasher.sketch``: the
    product ``a·x`` can exceed 64 bits for a 32-bit universe, so ``x``
    is split as ``hi·2**16 + lo`` and everything is reduced mod ``prime``
    along the way.
    """
    hi = arr >> _SIXTEEN
    lo = arr & _LOW_MASK
    a2 = a[None, :]
    t = (a2 * hi[:, None]) % prime
    t = ((t << _SIXTEEN) % prime + (a2 * lo[:, None]) % prime) % prime
    return (t + b[None, :]) % prime


def _hash_distinct(
    values: np.ndarray, a: np.ndarray, b: np.ndarray, prime: int
) -> np.ndarray:
    """:func:`hash_elements` of distinct ``values``, slot-major: ``(k, d)``.

    With ``P = 2³² + 15`` no division runs. ``aH = (a·2¹⁶) mod P``
    makes the unreduced ``s = aH·hi + a·lo + b`` congruent to
    ``a·x + b`` and below ``2⁵⁰`` (``aH, a < P < 2³³``; ``hi, lo <
    2¹⁶``), so it cannot overflow ``uint64``. With ``u = s >> 32``,
    ``t = s − u·P = (s & M32) − 15u`` is congruent to ``s`` and lies in
    ``(−2²², 2³²)``, stored wrapped by ``uint64``: the hash is ``t``
    when ``t ≥ 0`` and ``t + P`` otherwise, and in both cases it is the
    smaller of ``t`` and ``t + P`` (the other one is a positive ``P``
    larger, or wrapped near ``2⁶⁴``). Any other modulus takes one plain
    ``%`` pass.
    """
    prime_u = np.uint64(prime)
    hi = (values >> _SIXTEEN)[None, :]
    lo = (values & _LOW_MASK)[None, :]
    block = ((a << _SIXTEEN) % prime_u)[:, None] * hi
    other = np.multiply(a[:, None], lo, out=np.empty_like(block))
    block += other
    block += b[:, None]
    if prime != (1 << 32) + 15:
        return np.mod(block, prime_u, out=block)
    np.right_shift(block, _THIRTY_TWO, out=other)
    other *= prime_u
    block -= other
    np.add(block, prime_u, out=other)
    return np.minimum(block, other, out=block)


def sketch_batch(
    flat: np.ndarray,
    offsets: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    prime: int,
    empty_slot: int,
) -> np.ndarray:
    """Sketch every set of a ragged batch; returns ``(n_sets, k)``.

    Bit-identical to per-set :func:`hash_elements` + ``min``. The flat
    array goes in windows of ``CHUNK_BYTES / 8k`` elements, a set
    spanning two windows in two parts. A window hashes each *distinct*
    pivot it holds once (:func:`_hash_distinct`; pivot sets share most
    of their elements, so a window of twenty thousand elements holds a
    few hundred to a few thousand distinct values). Then, slot by slot,
    it gathers that slot's hashes back into element order and takes
    each set's minimum with one ``np.minimum.reduceat``. The largest
    temporaries are the window's ``(k, distinct)`` hashes and its
    ``(k, sets)`` minima, each at most ``CHUNK_BYTES`` at any dataset
    size; the one gathered row is ``CHUNK_BYTES / k``. Nothing is kept
    between calls.

    Every row starts at ``empty_slot``, the reference sentinel sketch,
    and each window writes the rows of the sets it holds, a set split
    across windows taking the minimum of its parts. An empty set is in
    no window (``reduceat`` would misread a zero-length segment as a
    singleton), so its row keeps the sentinel.
    """
    if offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("offsets must be a non-empty 1-D array")
    k = int(a.size)
    out = np.full((offsets.size - 1, k), empty_slot, dtype=np.uint64)
    end = int(offsets[-1])
    window = max(1, min(CHUNK_BYTES // (8 * k), end - int(offsets[0])))
    gathered = np.empty(window, dtype=np.uint64)
    for w0 in range(int(offsets[0]), end, window):
        w1 = min(w0 + window, end)
        # Sets [first, stop) overlap the window; clip them to it.
        first = int(np.searchsorted(offsets, w0, side="right")) - 1
        stop = int(np.searchsorted(offsets, w1, side="left"))
        bounds = np.clip(offsets[first : stop + 1], w0, w1) - w0
        held = np.flatnonzero(bounds[1:] > bounds[:-1])
        starts = bounds[held]
        values, inverse = np.unique(flat[w0:w1], return_inverse=True)
        hashed = _hash_distinct(values, a, b, prime)
        row = gathered[: w1 - w0]
        mins = np.empty((k, held.size), dtype=np.uint64)
        for slot in range(k):
            np.take(hashed[slot], inverse, out=row, mode="clip")
            np.minimum.reduceat(row, starts, out=mins[slot])
        if offsets[first] < w0:  # the first set began in the last window
            np.minimum(mins[:, 0], out[first], out=mins[:, 0])
        out[first + held] = mins.T
    return out

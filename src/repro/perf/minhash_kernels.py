"""Ragged-batch MinHash kernels.

The reference :meth:`MinHasher.sketch` hashes one set at a time: an
``(n, k)`` broadcasted multiply-add per set, with a Python-level loop
across sets in ``sketch_all``. For the datasets the paper stratifies
(10⁴–10⁶ pivot sets of a few dozen elements each) the per-set loop and
``np.fromiter`` conversion dominate. The batch kernel here removes
both: all pivot sets are concatenated into one flat ``uint64`` array
with CSR-style offsets, the linear permutations are applied to the
whole flat array in memory-bounded chunks, and per-set minima fall out
of a single ``np.minimum.reduceat``.

Kernels take the permutation coefficients and modulus as arguments
rather than importing them, so this module depends only on numpy and
cannot form an import cycle with ``repro.stratify``.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

#: Default ceiling for a kernel's largest temporary. 8 MiB measured
#: fastest for the sketch kernel on this class of machine: big enough
#: that per-chunk numpy dispatch overhead vanishes, small enough that
#: the reused scratch stays cache/TLB-warm and its one-time allocation
#: (page-fault cost scales with size) stays cheap.
DEFAULT_CHUNK_BYTES = 8 * 1024 * 1024

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


#: One cached scratch set per thread, keyed by shape. Repeat sketches
#: on one thread (``batch-cold`` prepares afresh for every op, and the
#: service's build process sketches every cold dataset key) would
#: otherwise re-pay the first-touch page-fault cost of ~two
#: ``chunk_bytes``-sized arrays (8 MiB) on every call. Measured on a
#: 2-vCPU box: freeing the scratch after each call cut the service
#: build process's peak RSS from 61 to 52 MiB but cost ``batch-cold``
#: 7.5 % CPU per op, so the set stays. Deliberately a single slot per
#: thread, not a dict: workloads alternate between at most a couple of
#: shapes and an unbounded cache could pin large dead blocks.
#: Thread-local because the kernel writes into the scratch via
#: ``out=`` and callers may sketch from several threads at once; a
#: shared block would let them corrupt each other's hashes.
_SCRATCH = threading.local()


def _scratch(k: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    key = (k, m)
    if getattr(_SCRATCH, "key", None) != key:
        _SCRATCH.key = key
        _SCRATCH.blocks = (
            np.empty((k, m), dtype=np.uint64),
            np.empty((k, m), dtype=np.uint64),
            np.empty(m, dtype=np.uint64),
            np.empty(m, dtype=np.uint64),
        )
    return _SCRATCH.blocks


def sketch_batch(
    flat: np.ndarray,
    offsets: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    prime: int,
    empty_slot: int,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """Sketch every set of a ragged batch; returns ``(n_sets, k)``.

    Bit-identical to per-set :func:`hash_elements` + ``min``, but with
    the arithmetic restructured for throughput:

    - **No division-based modular reduction at all.** With
      ``aH = (a·2¹⁶) mod P`` precomputed per slot, the unreduced sum
      ``s = aH·hi + a·lo + b`` stays below ``2⁵⁰`` (``aH, a < P < 2³³``;
      ``hi, lo < 2¹⁶``), so it cannot overflow ``uint64`` and
      ``s mod P`` equals ``(a·x + b) mod P`` exactly. The reduction
      then exploits ``P = 2³² + 15``: with ``u = s >> 32``,
      ``s − u·P = (s & M32) − 15u`` is congruent to ``s`` and sits in
      ``(−2²², 2³²)`` (``u < 2¹⁸``), stored wrapped by uint64. The
      final fix into ``[0, P)`` is folded into the minimum itself: per
      element, one of ``s − u·P`` and ``s − u·P + P`` *is* the true
      hash and the other is strictly larger (a positive multiple of
      ``P`` away, or wrapped near ``2⁶⁴``), so reducing both images per
      set and taking the elementwise min of the two small results is
      exact — no per-element fixup pass, and the hardware divide the
      reference pays per element (five ``%`` passes) never runs.
    - **Slot-major layout.** Blocks are ``(k, m)`` so
      ``np.minimum.reduceat`` reduces contiguous runs per slot row
      instead of striding across columns.
    - **Bounded, reused scratch.** Two ``(k, m)`` uint64 scratch blocks
      are allocated once and reused across chunks; ``m`` is sized so a
      block stays under ``chunk_bytes/2`` (fresh large allocations cost
      more than the arithmetic on a cold page).

    Empty sets are skipped (``reduceat`` would misread a zero-length
    segment as a singleton) and come back as ``empty_slot`` rows —
    exactly the reference sentinel sketch. Consecutive non-empty sets
    are contiguous in ``flat``, so a chunk of whole sets always maps to
    one flat slice.
    """
    if offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("offsets must be a non-empty 1-D array")
    num_sets = offsets.size - 1
    k = int(a.size)
    out = np.full((num_sets, k), empty_slot, dtype=np.uint64)
    lengths = np.diff(offsets)
    nonempty = np.flatnonzero(lengths > 0)
    if nonempty.size == 0:
        return out

    prime_u = np.uint64(prime)
    a_col = a[:, None]
    b_col = b[:, None]
    a_hi_col = ((a << _SIXTEEN) % prime_u)[:, None]  # (a·2^16) mod P, exact
    # The divisionless reduction is specific to P = 2^32 + 15
    # (2^32 ≡ -15 mod P); any other modulus takes the plain % pass.
    special_prime = prime == (1 << 32) + 15

    starts = offsets[nonempty]
    ends = offsets[nonempty + 1]
    # Elements per chunk such that each (k, m) scratch block fits half
    # the cap; never smaller than the largest single set.
    budget = max(1, chunk_bytes // (2 * k * 8))
    scratch_m = max(budget, int(lengths.max()))
    t, w, hi_s, lo_s = _scratch(k, scratch_m)

    i = 0
    while i < nonempty.size:
        # Largest j with ends[j-1] - starts[i] <= budget; always >= i+1
        # so a single oversized set still goes through in one piece.
        j = int(np.searchsorted(ends, starts[i] + budget, side="right"))
        j = min(max(j, i + 1), nonempty.size)
        segment = flat[starts[i] : ends[j - 1]]
        m = segment.size
        hi = np.right_shift(segment, _SIXTEEN, out=hi_s[:m])
        lo = np.bitwise_and(segment, _LOW_MASK, out=lo_s[:m])
        block = t[:, :m]
        other = w[:, :m]
        np.multiply(a_hi_col, hi[None, :], out=block)
        np.multiply(a_col, lo[None, :], out=other)
        block += other
        block += b_col  # s = aH·hi + a·lo + b < 2^50
        seg_starts = starts[i:j] - starts[i]
        if special_prime:
            # With u = s >> 32: s - u·P = (s & M32) - 15u ≡ s (mod P),
            # an integer in (-2^22, 2^32) that uint64 stores wrapped.
            # Rather than fixing every element into [0, P), exploit
            # that min commutes with the two-branch correction: for a
            # true hash h, `block` holds h (branch t ≥ 0) or
            # h + 2^64 - P (wrapped), and `block + P` holds h + P or h
            # respectively — the wrong branch is always strictly
            # larger. So reduce both images per set and take the
            # elementwise min of the two small results; the per-element
            # fixup passes never run.
            np.right_shift(block, _THIRTY_TWO, out=other)  # u < 2^18
            other *= prime_u  # u·P < 2^51
            block -= other
            np.add(block, prime_u, out=other)
            lo_img = np.minimum.reduceat(block, seg_starts, axis=1)
            hi_img = np.minimum.reduceat(other, seg_starts, axis=1)
            mins = np.minimum(lo_img, hi_img, out=lo_img)
        else:
            np.mod(block, prime_u, out=block)
            mins = np.minimum.reduceat(block, seg_starts, axis=1)
        rows = nonempty[i:j]
        first, last = int(rows[0]), int(rows[-1])
        if last - first == j - 1 - i:
            out[first : last + 1] = mins.T
        else:
            out[rows] = mins.T
        i = j
    return out

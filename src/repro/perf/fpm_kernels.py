"""Packed vertical-bitmap kernels for frequent pattern mining.

The reference Apriori counts every candidate against every transaction
with Python ``frozenset`` containment — ``O(n_tx · n_cand)`` interpreter
iterations per level — and the reference Eclat intersects Python
``frozenset`` tidlists. Both hot loops collapse onto the same vertical
layout: a bit-matrix with one **row per distinct item** and one **bit
per transaction** (64 transactions per ``uint64`` word). A candidate
itemset's support is then the popcount of the AND of its item rows, so
one level of candidate counting becomes a handful of fancy-indexed
``np.bitwise_and`` passes plus one ``np.bitwise_count`` — no per-
transaction Python at all — and an Eclat tidlist intersection is a
single vectorised AND over words.

As everywhere in :mod:`repro.perf`, the kernels are pure functions of
their arguments (numpy only, no imports from the workload modules) and
the callers keep their original implementations (``mine_reference``,
``count_patterns_reference``) as the oracles the equivalence suite
tests against. Outputs are bit-identical: supports, the candidate
counts and the work-unit accounting all match the reference exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.kvstore.codec import EncodedDataset, columns_of
from repro.perf import minhash_kernels


@dataclass(frozen=True)
class TransactionBitmap:
    """Vertical bit-matrix of one partition's transactions.

    Attributes
    ----------
    items:
        Sorted distinct item ids, shape ``(num_items,)`` int64.
    bits:
        ``(num_items + 1, num_words)`` uint64; row ``r`` is item
        ``items[r]``'s bitmap over transactions (bit ``t`` of word
        ``t // 64`` set iff transaction ``t`` contains the item). The
        **last row is an all-zero sentinel** so out-of-vocabulary items
        can be counted (their support is 0) without branching.
    supports:
        Per-item support (popcount of each item row), ``(num_items,)``.
    num_transactions:
        Number of transactions packed (bit-width of each row).
    total_occurrences:
        Total set bits — Σ per-transaction *distinct* item counts,
        which is exactly the reference miners' level-1 work charge.
    """

    items: np.ndarray
    bits: np.ndarray
    supports: np.ndarray
    num_transactions: int
    total_occurrences: int

    @property
    def num_items(self) -> int:
        return int(self.items.size)

    @property
    def sentinel_row(self) -> int:
        return self.num_items

    def rows_for(self, patterns: np.ndarray) -> np.ndarray:
        """Map an ``(n, k)`` int64 matrix of item ids to row indices.

        Items absent from the partition map to the zero sentinel row,
        so any pattern containing one gets support 0 — the same answer
        the reference containment scan gives.
        """
        pos = np.searchsorted(self.items, patterns)
        pos = np.minimum(pos, max(self.num_items - 1, 0))
        if self.num_items == 0:
            return np.full(patterns.shape, self.sentinel_row, dtype=np.int64)
        miss = self.items[pos] != patterns
        return np.where(miss, self.sentinel_row, pos)


def pack_transactions(
    transactions: Sequence[Iterable[int]] | EncodedDataset,
) -> TransactionBitmap:
    """Pack transactions — a staged partition or a record sequence —
    into a :class:`TransactionBitmap`.

    Duplicate items within a transaction collapse to one bit, matching
    the reference miners' ``frozenset(t)`` conversion. The items are
    flattened once (:func:`~repro.kvstore.codec.columns_of`), ranked by
    one argsort and deduplicated per transaction by one sort of the
    ``(item row, transaction)`` pairs, with no per-transaction loop.
    """
    vals, lengths = columns_of(transactions)
    n_tx = lengths.size
    num_words = max(1, -(-n_tx // 64))
    if vals.size == 0:
        return TransactionBitmap(
            items=np.empty(0, dtype=np.int64),
            bits=np.zeros((1, num_words), dtype=np.uint64),
            supports=np.empty(0, dtype=np.int64),
            num_transactions=n_tx,
            total_occurrences=0,
        )
    order = np.argsort(vals)
    ordered = vals[order]
    new_item = np.empty(vals.size, dtype=bool)
    new_item[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_item[1:])
    items = ordered[new_item]
    # (item row, transaction) of every occurrence, sorted; a repeat of
    # its predecessor is a duplicate inside one transaction.
    pairs = (np.cumsum(new_item) - 1) * n_tx + np.repeat(np.arange(n_tx), lengths)[order]
    pairs.sort()
    first = np.empty(pairs.size, dtype=bool)
    first[0] = True
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    pairs = pairs[first]
    rows, tx = np.divmod(pairs, n_tx)
    # Sorted pairs visit each bitmap word in one run: OR every run once.
    word = rows * num_words + (tx >> 6)
    runs = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
    bits = np.zeros((items.size + 1, num_words), dtype=np.uint64)
    bits.ravel()[word[runs]] = np.bitwise_or.reduceat(
        np.uint64(1) << (tx & 63).astype(np.uint64), runs
    )
    supports = np.bitwise_count(bits[:-1]).sum(axis=1, dtype=np.int64)
    return TransactionBitmap(
        items=items,
        bits=bits,
        supports=supports,
        num_transactions=n_tx,
        total_occurrences=int(pairs.size),
    )


def candidate_supports(bitmap: TransactionBitmap, rows: np.ndarray) -> np.ndarray:
    """Support of each candidate row-tuple: popcount(AND of item rows).

    ``rows`` is ``(n_cand, k)`` int64 of row indices (see
    :meth:`TransactionBitmap.rows_for`). Candidates are processed in
    blocks sized so the ``(block, num_words)`` AND temporary stays under
    :data:`~repro.perf.minhash_kernels.CHUNK_BYTES`. ``k == 0`` means
    the empty itemset, contained in every transaction.
    """
    n_cand, k = rows.shape
    if n_cand == 0:
        return np.empty(0, dtype=np.int64)
    if k == 0:
        return np.full(n_cand, bitmap.num_transactions, dtype=np.int64)
    num_words = bitmap.bits.shape[1]
    out = np.empty(n_cand, dtype=np.int64)
    block = max(1, minhash_kernels.CHUNK_BYTES // (num_words * 8))
    for start in range(0, n_cand, block):
        stop = min(start + block, n_cand)
        acc = bitmap.bits[rows[start:stop, 0]]  # fancy index: fresh copy
        for j in range(1, k):
            np.bitwise_and(acc, bitmap.bits[rows[start:stop, j]], out=acc)
        out[start:stop] = np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
    return out


def pattern_supports(
    bitmap: TransactionBitmap, patterns: Sequence[tuple[int, ...]]
) -> dict[tuple[int, ...], int]:
    """Support of arbitrary (mixed-length) patterns, grouped by length.

    Patterns with items the partition never saw get support 0 via the
    sentinel row — the global-pruning scan of Savasere's phase 2 counts
    a candidate union that other partitions contributed to.
    """
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for p in patterns:
        by_len.setdefault(len(p), []).append(p)
    counts: dict[tuple[int, ...], int] = {}
    for k, group in by_len.items():
        if k == 0:
            for p in group:
                counts[p] = bitmap.num_transactions
            continue
        idx = bitmap.rows_for(np.asarray(group, dtype=np.int64).reshape(len(group), k))
        sup = candidate_supports(bitmap, idx)
        for p, c in zip(group, sup):
            counts[p] = int(c)
    return counts


def intersect_supports(
    prefix_bits: np.ndarray, extension_rows: np.ndarray, bitmap: TransactionBitmap
) -> tuple[np.ndarray, np.ndarray]:
    """AND one prefix tidlist-bitmap against many item rows at once.

    Returns ``(intersections, supports)`` where ``intersections`` is
    ``(n_ext, num_words)`` and ``supports`` its per-row popcount — the
    batched Eclat DFS step.
    """
    inter = np.bitwise_and(prefix_bits[None, :], bitmap.bits[extension_rows])
    return inter, np.bitwise_count(inter).sum(axis=1, dtype=np.int64)

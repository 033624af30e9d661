"""Batched compositeKModes kernels.

The reference :class:`CompositeKModes` matches in a Python loop over
clusters and updates with one ``collections.Counter`` per (cluster,
attribute); these kernels do both in numpy batches, *bit-identically*
(asserted in ``tests/perf/``). A sketch matrix never changes during a
fit, so :func:`factorize_columns` turns it into dense codes once and
the fit runs in that *code space*, centres carrying the codes of their
values: :func:`match_counts_coded` answers every cell from a small
membership table and :func:`top_l_centers` ranks values with two plain
``int64`` sorts. :func:`match_counts` stays in value space for
:meth:`CompositeKModes.assign`, whose rows are new and have no codes.
"""

from __future__ import annotations

import numpy as np

from repro.perf.minhash_kernels import DEFAULT_CHUNK_BYTES


def match_counts(
    sketches: np.ndarray,
    centers: np.ndarray,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """``(n, K)`` matched-attribute counts, batched over all clusters.

    A row matches an attribute if its value appears anywhere in the
    centre's top-``L`` list. The ``(rows, K·L, k)`` equality block is
    the only temporary; ``rows`` keeps it below ``chunk_bytes``.
    """
    n, k = sketches.shape
    K, _, L = centers.shape
    # (K, k, L) -> (K·L, k), cluster-major then slot: row c*L + l holds
    # slot l of cluster c, so the reshape back to (rows, K, L, k) below
    # groups slots of one cluster together.
    flat_centers = np.ascontiguousarray(centers.transpose(0, 2, 1)).reshape(K * L, k)
    rows = max(1, chunk_bytes // max(1, K * L * k))
    counts = np.empty((n, K), dtype=np.int64)
    for start in range(0, n, rows):
        block = sketches[start : start + rows]
        eq = block[:, None, :] == flat_centers[None, :, :]
        hit = eq.reshape(block.shape[0], K, L, k).any(axis=2)
        counts[start : start + rows] = hit.sum(axis=2, dtype=np.int64)
    return counts


def factorize_columns(sketches: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-attribute dense codes for a categorical matrix.

    Returns ``(codes, col_offsets, all_values)`` where
    ``codes[i, attr] + col_offsets[attr]`` is a globally unique id for
    the value ``sketches[i, attr]`` — one id names one (attribute,
    value) pair — and ``all_values`` maps that id back to the value.
    """
    n, k = sketches.shape
    codes = np.empty((n, k), dtype=np.int64)
    values = []
    col_offsets = np.zeros(k + 1, dtype=np.int64)
    for attr in range(k):
        vals, inv = np.unique(sketches[:, attr], return_inverse=True)
        codes[:, attr] = inv
        values.append(vals)
        col_offsets[attr + 1] = col_offsets[attr] + vals.size
    all_values = np.concatenate(values) if values else np.empty(0, dtype=np.uint64)
    return codes, col_offsets, all_values


def match_counts_coded(
    codes: np.ndarray,
    col_offsets: np.ndarray,
    center_codes: np.ndarray,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """:func:`match_counts` in code space.

    ``center_codes`` is ``(K, k, L)`` global ids, ``-1`` for an unused
    slot. An id names its attribute too, so a cell matches cluster ``c``
    iff its id is among ``c``'s slots, and only ids held by some slot
    can match: the table has one row per such id (row 0: the rest) and
    one byte lane per cluster, eight lanes to a ``uint64`` word, so
    summing words over ≤ 255 attributes adds every lane at once without
    a carry. Temporaries are ``(rows, k)`` words, under ``chunk_bytes``.
    """
    n, k = codes.shape
    K = center_codes.shape[0]
    slots = center_codes.ravel()
    live = np.flatnonzero(slots >= 0)
    held, table_row_of_slot = np.unique(slots[live], return_inverse=True)
    words = -(-K // 8)
    table = np.zeros((held.size + 1, words * 8), dtype=np.uint8)
    table[table_row_of_slot + 1, live // (slots.size // K)] = 1
    lane_words = np.ascontiguousarray(table.view(np.uint64).T)
    table_row = np.zeros(int(col_offsets[-1]), dtype=np.intp)
    table_row[held] = np.arange(1, held.size + 1)
    rows = max(1, chunk_bytes // max(1, 16 * k))
    counts = np.zeros((n, K), dtype=np.int64)
    for start in range(0, n, rows):
        idx = np.take(table_row, codes[start : start + rows] + col_offsets[:-1])
        lanes = np.empty((idx.shape[0], words), dtype=np.uint64)
        for attr0 in range(0, k, 255):
            block = idx[:, attr0 : attr0 + 255]
            for w in range(words):
                np.take(lane_words[w], block).sum(axis=1, out=lanes[:, w])
            counts[start : start + rows] += lanes.view(np.uint8)[:, :K]
    return counts


def top_l_centers(
    codes: np.ndarray,
    col_offsets: np.ndarray,
    all_values: np.ndarray,
    labels: np.ndarray,
    old_centers: np.ndarray,
    old_center_codes: np.ndarray,
    *,
    top_l: int,
    fill: np.uint64,
) -> tuple[np.ndarray, np.ndarray]:
    """Every cluster's new top-``L`` lists, as ``(centers, center_codes)``.

    Sort one: a cell is the key ``(group, code, row)``, ``group =
    label·k + attr``, packed into an ``int64`` in power-of-two radices.
    Sorted, a run of equal ``(group, code)`` is one value of one
    (cluster, attribute): its length the frequency, its first row the
    first member holding it. Sort two: a run is the key ``(group,
    n − count, first_row)`` — count descending, then first occurrence
    ascending, which is ``Counter.most_common``'s order
    (``heapq.nlargest`` is stable over first-come insertion order). The
    value is whatever ``first_row`` holds in ``attr``. Memberless
    clusters keep their stale centre, as in the reference. Keys beyond
    ``int64`` raise instead of wrapping.
    """
    n, k = codes.shape
    K = old_centers.shape[0]
    row_bits = max(1, (n - 1).bit_length())  # holds a row, and n − count
    code_bits = int(np.diff(col_offsets).max(initial=1)).bit_length()
    if (K * k) << max(code_bits + row_bits, 2 * row_bits) >= 1 << 63:
        raise OverflowError(f"sort keys exceed int64: n={n}, k={k}, K={K}, {code_bits} code bits")
    row_mask = (1 << row_bits) - 1
    group_of_cell = labels[:, None] * np.int64(k) + np.arange(k, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)[:, None]
    keys = ((group_of_cell << code_bits | codes) << row_bits | rows).ravel()
    keys.sort()
    # Neighbours start a new run iff they differ above the row bits.
    starts = np.flatnonzero(np.r_[True, (keys[1:] ^ keys[:-1]) > row_mask])
    first = keys[starts]
    runs = first >> (code_bits + row_bits) << row_bits | (n - np.diff(starts, append=keys.size))
    runs = runs << row_bits | (first & row_mask)
    runs.sort()
    group_starts = np.flatnonzero(np.r_[True, (runs[1:] ^ runs[:-1]) >> (2 * row_bits) > 0])
    rank = np.arange(runs.size) - np.repeat(group_starts, np.diff(group_starts, append=runs.size))
    keep = rank < top_l
    top, rank = runs[keep], rank[keep]
    cluster, attr = np.divmod(top >> (2 * row_bits), k)
    ids = codes[top & row_mask, attr] + col_offsets[attr]
    new_centers = np.full_like(old_centers, fill)
    new_codes = np.full_like(old_center_codes, -1)
    new_centers[cluster, attr, rank] = all_values[ids]
    new_codes[cluster, attr, rank] = ids
    empty = np.bincount(labels, minlength=K) == 0
    new_centers[empty] = old_centers[empty]
    new_codes[empty] = old_center_codes[empty]
    return new_centers, new_codes

"""Batched compositeKModes kernels.

The reference :class:`CompositeKModes` matches in a Python loop over
clusters and updates with one ``collections.Counter`` per (cluster,
attribute); these kernels do both in numpy batches, *bit-identically*
(asserted in ``tests/perf/``). A sketch matrix never changes during a
fit, so :func:`code_sketches` turns it into dense ids once — one sort
per column, plus each cell's static sort key — and the fit runs in that
*code space*, centres carrying the ids of their values:
:func:`match_counts_coded` answers every cell from a per-id lane table
and :func:`top_l_centers` ranks values with two plain unsigned sorts.
Both take a subset of the clusters, so a fit re-ranks and re-matches
only the clusters whose membership moved. :func:`distinct_rows` draws
the initial centres' pool from the ids. :func:`match_counts` stays in
value space for :meth:`CompositeKModes.assign`, whose rows are new and
have no ids.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Per-attribute dense codes of a categorical matrix, as global ids.

    Returns ``(column_ids, col_offsets, values)``, the ids one row per
    attribute: ``column_ids[attr, i]`` names the (attribute, value) pair
    of cell ``(i, attr)``, ``column_ids[attr, i] - col_offsets[attr]`` is
    that value's rank among the attribute's distinct values, and
    ``values[id]`` is the value. Ids are ``int32`` whenever ``n·k`` fits
    it. One argsort per column, all in one call.
    """
    n, k = sketches.shape
    columns = np.ascontiguousarray(sketches.T)
    order = np.argsort(columns, axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    del columns
    new = np.ones((k, n), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    values = ordered[new]
    del ordered
    id_dtype = np.int32 if n * k < 2**31 else np.int64
    ids = np.empty((k, n), dtype=id_dtype)
    rank = np.cumsum(new, dtype=id_dtype)
    rank -= 1
    np.put_along_axis(ids, order, rank.reshape(k, n), axis=1)
    col_offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(new.sum(axis=1), out=col_offsets[1:])
    return ids, col_offsets, values


def distinct_rows(column_ids: np.ndarray, col_offsets: np.ndarray) -> np.ndarray:
    """``np.unique(sketches, axis=0, return_index=True)[1]`` from the ids.

    The first row of each distinct sketch row, rows in lexicographic
    order. A column's codes rank its values, so code rows sort like
    value rows, and as fixed-width big-endian bytes they sort by
    ``memcmp``: one sort of ``n`` opaque keys instead of a field-by-field
    structured sort.
    """
    k, n = column_ids.shape
    if k == 0:
        return np.zeros(min(n, 1), dtype=np.intp)
    cardinality = int(np.diff(col_offsets).max())
    width = next(w for w in (2, 4, 8) if cardinality <= 1 << (8 * w))
    codes = column_ids - col_offsets[:-1, None].astype(column_ids.dtype)
    packed = codes.T.astype(f">u{width}", order="C")
    return np.unique(packed.view(f"V{width * k}").ravel(), return_index=True)[1]


def _key_dtype(bits: int) -> type:
    """The narrowest unsigned dtype numpy sorts natively for ``bits``."""
    if bits > 64:
        raise OverflowError(f"sort keys exceed 64 bits ({bits} needed)")
    return np.uint32 if bits <= 32 else np.uint64


@dataclass(frozen=True)
class CodedSketches:
    """A sketch matrix in code space, built once per fit.

    ``column_ids``, ``col_offsets`` and ``values`` are
    :func:`factorize_columns`';
    ``cell_keys[i, attr]`` is the static part of the centre update's
    sort key, the fields ``attr | code | i`` (``code`` the value's rank
    in its column), in ``code_bits`` and ``row_bits`` wide fields; the
    cluster goes above them per round, in ``label_bits``. Keys are
    ``uint32`` when the widest key of the fit fits it.
    """

    column_ids: np.ndarray
    col_offsets: np.ndarray
    values: np.ndarray
    cell_keys: np.ndarray
    label_bits: int
    code_bits: int
    row_bits: int


def code_sketches(sketches: np.ndarray, num_clusters: int) -> CodedSketches:
    """Factorise ``sketches`` and build the cells' static sort keys."""
    column_ids, col_offsets, values = factorize_columns(sketches)
    k, n = column_ids.shape
    code_bits = (int(np.diff(col_offsets).max(initial=1)) - 1).bit_length()
    row_bits = max(1, (n - 1).bit_length())  # also holds n − count
    attr_bits = (k - 1).bit_length()
    label_bits = (num_clusters - 1).bit_length()
    dtype = _key_dtype(label_bits + attr_bits + code_bits + row_bits)
    keys = np.empty((n, k), dtype=dtype)
    keys[:] = (np.arange(k, dtype=dtype) << (code_bits + row_bits))
    codes = (column_ids.T - col_offsets[:-1].astype(column_ids.dtype)).astype(dtype)
    codes <<= row_bits
    keys |= codes
    del codes
    keys |= np.arange(n, dtype=dtype)[:, None]
    return CodedSketches(column_ids, col_offsets, values, keys, label_bits, code_bits, row_bits)


def match_counts_coded(
    coded: CodedSketches,
    center_ids: np.ndarray,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """:func:`match_counts` in code space, for the clusters given.

    ``center_ids`` is ``(C, k, L)`` ids, ``-1`` for an unused slot; the
    result is ``(n, C)``, ``uint8`` when ``k`` ≤ 255 and ``int64``
    otherwise. An id names its attribute too, so a cell matches cluster
    ``c`` iff its id is among ``c``'s slots. Clusters go eight at a time
    into one ``uint64`` lane word per id (one byte lane per cluster), so
    gathering the words of a block of rows attribute by attribute and
    summing over ≤ 255 attributes adds every lane at once without a
    carry. The gathered ``(k, rows)`` words stay under ``chunk_bytes``.
    """
    column_ids = coded.column_ids
    k, n = column_ids.shape
    C = center_ids.shape[0]
    slab = min(max(k, 1), 255)
    rows = max(1, chunk_bytes // (8 * slab))
    counts = np.zeros((n, C), dtype=np.uint8 if k <= 255 else np.int64)
    for c0 in range(0, C, 8):
        block = center_ids[c0 : c0 + 8]
        live = block >= 0
        lanes = np.zeros(coded.values.size, dtype=np.uint64)
        lane_bytes = lanes.view(np.uint8).reshape(-1, 8)
        lane_bytes[block[live], np.nonzero(live)[0]] = 1
        width = block.shape[0]
        for start in range(0, n, rows):
            for attr0 in range(0, k, slab):
                words = np.take(lanes, column_ids[attr0 : attr0 + slab, start : start + rows])
                sums = words.sum(axis=0).view(np.uint8).reshape(-1, 8)
                counts[start : start + rows, c0 : c0 + width] += sums[:, :width]
    return counts


def top_l_centers(
    coded: CodedSketches,
    labels: np.ndarray,
    rows: np.ndarray,
    old_centers: np.ndarray,
    old_center_ids: np.ndarray,
    *,
    top_l: int,
    fill: np.uint64,
) -> tuple[np.ndarray, np.ndarray]:
    """New top-``L`` lists of the clusters that ``rows`` belong to, as
    ``(centers, center_ids)``; every other cluster keeps its centre.

    Pass all members of every cluster to update (in row order): a
    cluster with no row here looks memberless, and a memberless cluster
    keeps its (stale) centre, as in the reference.

    Sort one: a cell is the key ``(label, attr, code, row)`` — the
    cluster over the cell's static key. Sorted, a run of equal
    ``(label, attr, code)`` is one value of one (cluster, attribute):
    its length the frequency, its first row the first member holding
    it. Sort two: a run is the key ``(label, attr, n − count,
    first_row)`` — count descending, then first occurrence ascending,
    which is ``Counter.most_common``'s order (``heapq.nlargest`` is
    stable over first-come insertion order). The first ``L`` runs of
    each (cluster, attribute) are its top-``L``.
    """
    k, n = coded.column_ids.shape
    if (old_centers.shape[0] - 1).bit_length() > coded.label_bits:
        raise ValueError(f"sketches were coded for at most {1 << coded.label_bits} clusters")
    attr_bits = (k - 1).bit_length()
    row_bits = coded.row_bits
    group_shift = coded.code_bits + row_bits
    label_shift = attr_bits + group_shift
    dtype = coded.cell_keys.dtype.type
    row_mask = (1 << row_bits) - 1

    keys = coded.cell_keys[rows]
    keys += (labels[rows].astype(dtype) << dtype(label_shift))[:, None]
    keys = keys.ravel()
    keys.sort()
    run = np.empty(keys.size, dtype=bool)
    run[:1] = True
    above = keys >> row_bits
    np.not_equal(above[1:], above[:-1], out=run[1:])
    del above
    starts = np.flatnonzero(run)
    del run
    first = keys[starts]
    count = np.diff(starts, append=keys.size)
    del keys, starts
    runs = (first >> group_shift).astype(_key_dtype(coded.label_bits + attr_bits + 2 * row_bits))
    runs <<= row_bits
    runs |= (n - count).astype(runs.dtype)
    del count
    runs <<= row_bits
    runs |= first & row_mask
    del first
    runs.sort()

    group = runs >> (2 * row_bits)
    head = np.empty(runs.size, dtype=bool)
    head[:1] = True
    np.not_equal(group[1:], group[:-1], out=head[1:])
    keep = head.copy()
    for lag in range(1, top_l):
        keep[lag:] |= head[:-lag]
    heads = np.flatnonzero(head)
    kept = np.flatnonzero(keep)
    rank = kept - heads[np.searchsorted(heads, kept, side="right") - 1]
    cluster, attr = np.divmod(group[kept].astype(np.int64), 1 << attr_bits)
    ids = coded.column_ids[attr, (runs[kept] & row_mask).astype(np.intp)]

    new_centers = old_centers.copy()
    new_ids = old_center_ids.copy()
    updated = np.zeros(old_centers.shape[0], dtype=bool)
    updated[cluster] = True
    new_centers[updated] = fill
    new_ids[updated] = -1
    new_centers[cluster, attr, rank] = coded.values[ids]
    new_ids[cluster, attr, rank] = ids
    return new_centers, new_ids

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
only the clusters whose membership moved, and both write into buffers
the fit allocates once (:class:`FitBuffers`): a fit runs a dozen
rounds or more, and a fresh array above glibc's 128 KiB mmap threshold
is faulted in page by page on every round. :func:`distinct_rows` draws
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
    ``values[id]`` is the value. Ids are ``intp``, the index type every
    numpy gather takes: narrower ids would be copied to ``intp`` on each
    of a fit's gathers. One argsort per column, all in one call.
    """
    n, k = sketches.shape
    columns = np.ascontiguousarray(sketches.T)
    order = np.argsort(columns, axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    del columns
    new = np.ones((k, n), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    values = ordered[new]
    rank = np.cumsum(new, dtype=np.intp, out=ordered.view(np.intp).reshape(-1))
    rank -= 1
    ids = np.empty((k, n), dtype=np.intp)
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
    packed = np.empty((n, k), dtype=f">u{width}")
    np.subtract(column_ids.T, col_offsets[:-1], out=packed, casting="unsafe")
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
    in its column); ``code`` and ``i`` are both ``row_bits`` wide (a
    column has at most ``n`` values), and the cluster goes above them
    per round, in ``label_bits``. Keys are ``uint32`` when the widest
    key of the fit fits it.
    """

    column_ids: np.ndarray
    col_offsets: np.ndarray
    values: np.ndarray
    cell_keys: np.ndarray
    label_bits: int
    row_bits: int


def code_sketches(sketches: np.ndarray, num_clusters: int) -> CodedSketches:
    """Factorise ``sketches`` and build the cells' static sort keys."""
    column_ids, col_offsets, values = factorize_columns(sketches)
    k, n = column_ids.shape
    row_bits = max(1, (n - 1).bit_length())  # also holds n − count
    attr_bits = (k - 1).bit_length()
    label_bits = (num_clusters - 1).bit_length()
    dtype = _key_dtype(label_bits + attr_bits + 2 * row_bits)
    keys = np.empty((n, k), dtype=dtype)
    np.subtract(column_ids.T, col_offsets[:-1], out=keys, casting="unsafe")  # codes
    keys <<= row_bits
    keys |= np.arange(k, dtype=dtype) << (2 * row_bits)
    keys |= np.arange(n, dtype=dtype)[:, None]
    return CodedSketches(column_ids, col_offsets, values, keys, label_bits, row_bits)


@dataclass(frozen=True)
class FitBuffers:
    """What a fit's rounds write, allocated once per fit.

    :func:`match_counts_coded` uses ``lanes``, the lane table (one
    ``uint64`` per id, all zero between calls), ``words``, where a row
    block's words are gathered, and ``sums``, their lane sums (one per
    row of a block). :func:`top_l_centers` uses the rest, each sized for
    every cell (``n·k``), since the first round ranks them all:
    ``keys``, the cells' sort keys, then each run's ``n − count``, then
    each run's group; ``flags``, the first cell of each run, then the
    first run of each group; ``keep``, each group's first ``L`` runs.
    It also borrows ``words``, which the matcher is not using then,
    viewed as the key dtype: each cell's run prefix, then the runs' sort
    keys.
    """

    lanes: np.ndarray
    words: np.ndarray
    sums: np.ndarray
    keys: np.ndarray
    flags: np.ndarray
    keep: np.ndarray

    @classmethod
    def for_coded(
        cls, coded: CodedSketches, chunk_bytes: int = DEFAULT_CHUNK_BYTES
    ) -> "FitBuffers":
        k, n = coded.column_ids.shape
        cells = coded.cell_keys.size
        rows = max(1, min(n, chunk_bytes // (8 * min(max(k, 1), 255))))
        return cls(
            lanes=np.zeros(coded.values.size, dtype=np.uint64),
            words=np.empty(cells, dtype=np.uint64),  # a row block holds slab·rows ≤ n·k
            sums=np.empty(rows, dtype=np.uint64),
            keys=np.empty(cells, dtype=coded.cell_keys.dtype),
            flags=np.empty(cells, dtype=bool),
            keep=np.empty(cells, dtype=bool),
        )


def match_counts_coded(
    coded: CodedSketches,
    center_ids: np.ndarray,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    *,
    buffers: FitBuffers | None = None,
) -> np.ndarray:
    """:func:`match_counts` in code space, for the clusters given.

    ``center_ids`` is ``(C, k, L)`` ids, ``-1`` for an unused slot; the
    result is ``(n, C)``, ``uint8`` when ``k`` ≤ 255 and ``int64``
    otherwise. An id names its attribute too, so a cell matches cluster
    ``c`` iff its id is among ``c``'s slots. Clusters go eight at a time
    into one ``uint64`` lane word per id (one byte lane per cluster), so
    gathering the words of a block of rows attribute by attribute and
    summing over ≤ 255 attributes adds every lane at once without a
    carry. The gathered ``(k, rows)`` words stay under ``chunk_bytes``;
    ``buffers`` (built for the same ``chunk_bytes``) holds them, made
    afresh when not given. The gather passes ``mode="clip"``: with the
    default ``"raise"``, ``np.take`` gathers into a temporary and copies
    it to ``out``, allocating anyway. Ids are always in range, so the
    clip never acts.
    """
    column_ids = coded.column_ids
    k, n = column_ids.shape
    C = center_ids.shape[0]
    if buffers is None:
        buffers = FitBuffers.for_coded(coded, chunk_bytes)
    slab = min(max(k, 1), 255)
    rows = buffers.sums.size
    lane_bytes = buffers.lanes.view(np.uint8).reshape(-1, 8)
    counts = np.zeros((n, C), dtype=np.uint8 if k <= 255 else np.int64)
    for c0 in range(0, C, 8):
        block = center_ids[c0 : c0 + 8]
        live = block >= 0
        set_ids, set_lanes = block[live], np.nonzero(live)[0]
        lane_bytes[set_ids, set_lanes] = 1
        width = block.shape[0]
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            for attr0 in range(0, k, slab):
                attrs = min(slab, k - attr0)
                words = buffers.words[: attrs * (stop - start)].reshape(attrs, stop - start)
                np.take(
                    buffers.lanes, column_ids[attr0 : attr0 + attrs, start:stop],
                    out=words, mode="clip",
                )
                sums = np.add.reduce(words, axis=0, out=buffers.sums[: stop - start])
                counts[start:stop, c0 : c0 + width] += sums.view(np.uint8).reshape(-1, 8)[:, :width]
        lane_bytes[set_ids, set_lanes] = 0
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
    buffers: FitBuffers | None = None,
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
    each (cluster, attribute) are its top-``L``. Every per-cell array
    is a prefix of ``buffers`` (made afresh when not given).
    """
    k, n = coded.column_ids.shape
    if (old_centers.shape[0] - 1).bit_length() > coded.label_bits:
        raise ValueError(f"sketches were coded for at most {1 << coded.label_bits} clusters")
    if buffers is None:
        buffers = FitBuffers.for_coded(coded)
    attr_bits = (k - 1).bit_length()
    row_bits = coded.row_bits
    dtype = coded.cell_keys.dtype.type
    row_mask = (1 << row_bits) - 1
    cells = rows.size * k

    keys = buffers.keys[:cells]
    np.take(coded.cell_keys, rows, axis=0, out=keys.reshape(rows.size, k), mode="clip")
    label_shift = attr_bits + 2 * row_bits
    keys.reshape(rows.size, k)[...] += (labels[rows].astype(dtype) << dtype(label_shift))[:, None]
    keys.sort()
    flags = buffers.flags[:cells]
    flags[:1] = True
    above = np.right_shift(keys, row_bits, out=buffers.words.view(dtype)[:cells])
    np.not_equal(above[1:], above[:-1], out=flags[1:])
    starts = np.flatnonzero(flags)
    runs = np.take(keys, starts, out=buffers.words.view(dtype)[: starts.size], mode="clip")
    rest = keys[: starts.size]  # n − count; the cell keys are spent
    np.subtract(starts[1:], starts[:-1], out=rest[:-1], casting="unsafe")
    rest[-1:] = cells - starts[-1:]
    np.subtract(n, rest, out=rest)
    del starts
    # A run's key is its first cell with n − count in place of the code.
    runs &= dtype(np.iinfo(dtype).max ^ (row_mask << row_bits))
    rest <<= row_bits
    runs |= rest
    runs.sort()

    group = np.right_shift(runs, 2 * row_bits, out=keys[: runs.size])
    head = buffers.flags[: runs.size]
    head[:1] = True
    np.not_equal(group[1:], group[:-1], out=head[1:])
    keep = buffers.keep[: runs.size]
    keep[:] = head
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

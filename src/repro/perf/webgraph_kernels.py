"""Whole-partition WebGraph coder kernels.

The reference :meth:`WebGraphCodec.compress_reference` walks the
partition list by list: it serialises the plain interval/gap block of
every list and of every overlapping reference candidate, then keeps the
shortest. The kernels here run no Python per list or per candidate while
emitting the **byte-identical blob** (and identical statistics):

- :func:`flatten_lists` lays the partition — a staged
  :class:`~repro.kvstore.codec.EncodedDataset` or a record list, read
  through :func:`~repro.kvstore.codec.columns_of` — out as CSR: one
  ``uint64`` value array, one list-id array, per-list offsets, each
  list deduplicated and sorted. Membership keys ``list · R + rank`` (``rank``
  is a value's dense rank over the partition) make "is id ``x`` in list
  ``j``" one ``searchsorted`` whatever the ids are.
- :func:`plain_lengths` sizes every list's plain block at once:
  interval splitting on the concatenated value array, with list
  boundaries as breaks, and vectorised varint lengths summed per list.
- :func:`compress_lists` scores one reference distance at a time over
  the whole partition — membership both ways, the reference's copy-mask
  runs, the extras' plain block — keeps the first strict minimum per
  list (the reference's scan order), then lays every winner's symbols
  out with one offsets cumsum and one scatter, serialised by
  :func:`~repro.perf.lz77_kernels.encode_varints_bytes`.

Temporaries are O(edges) and live for one distance; only per-list
lengths cross distances. The reference coder survives as
``WebGraphCodec.compress_reference`` and ``tests/perf/`` asserts
identical blobs and stats.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from repro.kvstore.codec import EncodedDataset, columns_of
from repro.perf.lz77_kernels import encode_varints_bytes, varint_lengths

#: WebGraph's ``Lmin`` (``webgraph.MIN_INTERVAL_LENGTH``): runs of
#: consecutive ids at least this long are coded as intervals.
_MIN_INTERVAL = 3


class Lists(NamedTuple):
    """A partition of id lists as CSR, each list sorted and deduplicated.

    List ``i`` is ``values[offsets[i]:offsets[i + 1]]``; ``lists`` is
    every entry's list id and ``keys = lists · stride + rank``, strictly
    increasing, where ``rank`` is the entry's dense rank among the
    partition's ``stride`` distinct values.
    """

    values: np.ndarray
    lists: np.ndarray
    offsets: np.ndarray
    keys: np.ndarray
    stride: int


def _as_uint64(
    adjacency: Sequence[Sequence[int]] | EncodedDataset,
) -> tuple[np.ndarray, np.ndarray]:
    """Every id of every list, concatenated, as ``uint64``, and each
    list's length."""
    try:
        raw, sizes = columns_of(adjacency)
        if not raw.size or raw.min() >= 0:
            return raw.view(np.uint64), sizes
    except OverflowError:
        pass
    # A record list with ids ≥ 2^63, or some negative one: decide on the
    # exact values.
    exact = [int(v) for v in chain.from_iterable(adjacency)]
    if min(exact) < 0 or max(exact) >= 1 << 64:
        raise ValueError("webgraph ids must be non-negative and fit uint64")
    return np.array(exact, dtype=np.uint64), np.fromiter(map(len, adjacency), dtype=np.int64)


def flatten_lists(adjacency: Sequence[Sequence[int]] | EncodedDataset) -> Lists:
    """CSR of ``[sorted(set(int(v) for v in raw)) for raw in adjacency]``.

    Raises ``ValueError`` on a negative id or one ≥ 2^64.
    """
    raw, sizes = _as_uint64(adjacency)
    n = sizes.size
    distinct, rank = np.unique(raw, return_inverse=True)
    stride = max(distinct.size, 1)
    keys = np.repeat(np.arange(n, dtype=np.int64), sizes) * stride + rank
    keys.sort(kind="stable")  # lists arrive sorted: timsort is one pass
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys
    lists = keys // stride
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lists, minlength=n), out=offsets[1:])
    return Lists(distinct[keys - lists * stride], lists, offsets, keys, stride)


def _gaps(values: np.ndarray, lists: np.ndarray) -> np.ndarray:
    """``gaps_encode`` inside each list: the first value, then ``v − prev − 1``."""
    out = np.empty_like(values)
    if values.size:
        out[0] = values[0]
        out[1:] = values[1:] - values[:-1] - 1  # wraps across lists; overwritten
        head = np.flatnonzero(lists[1:] != lists[:-1]) + 1
        out[head] = values[head]
    return out


def _interval_runs(
    values: np.ndarray, lists: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every list's maximal runs of consecutive ids, split at once.

    Returns ``(starts, lengths, residual)``: the entry index and length
    of each run ≥ ``_MIN_INTERVAL`` (an interval), and a mask of the
    entries left for gap coding.
    """
    cut = np.ones(values.size, dtype=bool)
    cut[1:] = (lists[1:] != lists[:-1]) | (values[1:] - values[:-1] != 1)
    starts = np.flatnonzero(cut)
    lengths = np.diff(starts, append=values.size)
    interval = lengths >= _MIN_INTERVAL
    return starts[interval], lengths[interval], np.repeat(~interval, lengths)


class _Plain(NamedTuple):
    """The plain blocks of a CSR sub-sequence: interval lefts (gap-coded)
    and lengths, residual gaps, each with its list id."""

    int_lists: np.ndarray
    left_gaps: np.ndarray
    extra_lengths: np.ndarray
    res_lists: np.ndarray
    res_gaps: np.ndarray


def _plain_blocks(values: np.ndarray, lists: np.ndarray) -> _Plain:
    starts, lengths, residual = _interval_runs(values, lists)
    int_lists, res_lists = lists[starts], lists[residual]
    return _Plain(
        int_lists,
        _gaps(values[starts], int_lists),
        lengths - _MIN_INTERVAL,
        res_lists,
        _gaps(values[residual], res_lists),
    )


def plain_lengths(values: np.ndarray, lists: np.ndarray, n: int) -> np.ndarray:
    """Byte length of each of ``n`` lists' plain block (``_encode_plain``):
    ``[n_intervals] lefts lengths [n_residuals] residual gaps``."""
    p = _plain_blocks(values, lists)
    symbols = np.concatenate((p.left_gaps, p.extra_lengths.view(np.uint64), p.res_gaps))
    body = np.bincount(
        np.concatenate((p.int_lists, p.int_lists, p.res_lists)),
        weights=varint_lengths(symbols),
        minlength=n,
    )
    return (
        varint_lengths(np.bincount(p.int_lists, minlength=n))
        + varint_lengths(np.bincount(p.res_lists, minlength=n))
        + body.astype(np.int64)
    )


def _member(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(found, pos)``: whether each query is in the sorted, non-empty
    ``keys``, and where."""
    pos = np.searchsorted(keys, queries)
    return keys[np.minimum(pos, keys.size - 1)] == queries, pos


def _copy_runs(mask: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length code every block's copy mask at once, as the oracle's
    ``webgraph._copy_runs`` does one mask.

    ``head`` marks each block's first entry; blocks are non-empty. A
    block's first run counts kept entries, so a mask that starts with a
    miss begins with a 0 run. Returns ``(starts, lengths)`` per run, in
    block order; run ``r`` belongs to the block of entry ``starts[r]``.
    """
    prev = np.empty_like(mask)
    prev[0] = True
    prev[1:] = mask[:-1]
    prev[head] = True  # the virtual leading "kept" run
    # A head opens the kept run; a flip opens another (both at a miss head).
    opens = head.astype(np.int64) + (mask != prev)
    starts = np.repeat(np.arange(mask.size), opens)
    return starts, np.diff(starts, append=mask.size)


def _reference_lengths(part: Lists, back: int, n: int, head: np.ndarray) -> np.ndarray:
    """Byte length of every list coded against the list ``back`` before
    it; ``-1`` where that is no candidate (no shared entry, or no list)."""
    keys, lists = part.keys, part.lists
    # Entries of list j that list j + back also holds: the copy mask.
    kept, pos = _member(keys, keys + back * part.stride)
    copied = np.zeros(keys.size, dtype=bool)
    copied[pos[kept]] = True  # entries of list i found in list i − back
    starts, lengths = _copy_runs(kept, head)
    run_lists = lists[starts]
    n_runs = np.bincount(run_lists, minlength=n)
    header = (
        varint_lengths(np.array([back]))
        + varint_lengths(n_runs)
        + np.bincount(run_lists, weights=varint_lengths(lengths), minlength=n).astype(np.int64)
    )
    extras = ~copied
    cost = plain_lengths(part.values[extras], lists[extras], n)
    cost[back:] += header[:-back]
    cost[np.bincount(lists[copied], minlength=n) == 0] = -1
    return cost


def _symbols(part: Lists, back: np.ndarray) -> np.ndarray:
    """The winners' varint symbol stream: ``back[i]`` is list ``i``'s
    reference distance, 0 for plain. (Its temporaries are freed before
    the stream is serialised, so the two peaks do not add up.)"""
    n = back.size
    values, lists, offsets, keys, stride = part
    sizes = np.diff(offsets)
    ref = np.flatnonzero(back)
    emitted = np.ones(keys.size, dtype=bool)
    run_owner = run_lengths = np.empty(0, dtype=np.int64)
    if ref.size:
        # What each referenced list copies: its entries found in its reference.
        entry_back = back[lists]
        sel = np.flatnonzero(entry_back)
        copied, _ = _member(keys, keys[sel] - entry_back[sel] * stride)
        emitted[sel[copied]] = False
        # Each reference's entries, gathered behind the list that copies them.
        src = ref - back[ref]
        block = np.cumsum(sizes[src]) - sizes[src]
        owner = np.repeat(ref, sizes[src])
        entries = np.arange(owner.size) + np.repeat(offsets[src] - block, sizes[src])
        kept, _ = _member(keys, keys[entries] + (owner - lists[entries]) * stride)
        head = np.zeros(owner.size, dtype=bool)
        head[block] = True
        starts, run_lengths = _copy_runs(kept, head)
        run_owner = owner[starts]
    n_runs = np.bincount(run_owner, minlength=n)
    p = _plain_blocks(values[emitted], lists[emitted])
    n_int = np.bincount(p.int_lists, minlength=n)
    n_res = np.bincount(p.res_lists, minlength=n)

    # Block of list i: flag, [back, n_runs, runs] if referenced, plain block.
    header = np.where(back > 0, 2 + n_runs, 0)
    count = 1 + header + 2 + 2 * n_int + n_res
    start = 1 + np.cumsum(count) - count  # after the list count
    symbols = np.empty(1 + int(count.sum()), dtype=np.uint64)
    symbols[0] = n
    symbols[start] = back > 0
    symbols[start[ref] + 1] = back[ref]
    symbols[start[ref] + 2] = n_runs[ref]
    symbols[start[run_owner] + 3 + _rank_in_group(run_owner, n_runs)] = run_lengths
    plain_at = start + 1 + header
    symbols[plain_at] = n_int
    k = _rank_in_group(p.int_lists, n_int)
    symbols[plain_at[p.int_lists] + 1 + k] = p.left_gaps
    symbols[plain_at[p.int_lists] + 1 + n_int[p.int_lists] + k] = p.extra_lengths
    res_at = plain_at + 1 + 2 * n_int
    symbols[res_at] = n_res
    symbols[res_at[p.res_lists] + 1 + _rank_in_group(p.res_lists, n_res)] = p.res_gaps
    return symbols


def _rank_in_group(groups: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Index of each entry within its group (``groups`` sorted)."""
    return np.arange(groups.size) - (np.cumsum(counts) - counts)[groups]


def compress_lists(
    adjacency: Sequence[Sequence[int]] | EncodedDataset, window: int
) -> tuple[bytes, dict[str, int]]:
    """WebGraph-compress a partition; byte-identical to the reference coder.

    Each list is coded plain or against one of the ``window`` lists
    before it, whichever is shortest (the first one on a tie, plain
    first). Returns ``(blob, stats)`` where stats carries the
    reference's counters: ``input_edges``, ``referenced_lists``,
    ``work_units`` (candidate entries scanned + bytes kept + entries).
    """
    part = flatten_lists(adjacency)
    n = part.offsets.size - 1
    best = plain_lengths(part.values, part.lists, n)
    back = np.zeros(n, dtype=np.int64)
    if part.keys.size:
        head = np.zeros(part.keys.size, dtype=bool)
        head[part.offsets[:-1][np.diff(part.offsets) > 0]] = True
        for b in range(1, min(window, n - 1) + 1):
            cost = _reference_lengths(part, b, n, head)
            better = (cost >= 0) & (cost < best)
            best[better] = cost[better]
            back[better] = b
    blob = encode_varints_bytes(_symbols(part, back))
    offsets = part.offsets
    scanned = offsets[:-1] - offsets[np.maximum(np.arange(n) - window, 0)]
    edges = int(offsets[-1])
    stats = {
        "input_edges": edges,
        "referenced_lists": int(np.count_nonzero(back)),
        "work_units": int(scanned.sum()) + int(best.sum()) + edges,
    }
    return blob, stats

"""FP-growth as one array forest per pattern length.

The reference :meth:`FPGrowthMiner.mine_reference` builds a pointer
FP-tree node by node and mines it recursively: for every item, walk its
header chain to the root, collect the conditional pattern base, and
insert the filtered base into a fresh conditional tree. The kernel here
runs no Python per transaction, per tree node or per conditional tree
while returning the **same patterns in the same order, the same base
count and the same tree-node visits**:

- Every tree of the recursion orders its paths by the one global item
  order (support descending, id ascending), so a path is a *set* of item
  ranks and a node is the set of ranks on its root path. A path is
  stored as a row bitmask over ranks (``W`` ``uint64`` words), and the
  node an item ``x`` occupies on a path is ``path & below[x + 1]`` — the
  path's ranks up to and including ``x``.
- All conditional trees of one pattern length form one *forest*: rows
  ``(tree, mask, count)``, with the trees of length ``k`` keyed by the
  ``(tree, item)`` pairs of length ``k − 1``. One pass per length finds
  every tree's nodes (the distinct ``(tree, path & below[x + 1])``), their
  counts and depths, every conditional base (node minus its own bit,
  weighted by the node count), every conditionally frequent item, and
  the filtered rows of the next forest.
- Work units count what the pointer trees would visit: Σ depth over each
  item's nodes (the header-chain walk to the root), and Σ filtered base
  length per node (the conditional insert).

The reference miner survives as ``FPGrowthMiner.mine_reference`` and
``tests/perf/`` asserts identical output dicts (order included),
``candidates_generated`` and ``work_units``.
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Sequence

import numpy as np

from repro.kvstore.codec import EncodedDataset, columns_of

_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class ForestMining(NamedTuple):
    """What one FP-growth run produced.

    ``counts`` maps each frequent itemset (ascending ids) to its support,
    in the reference's depth-first emission order; ``bases`` is the
    number of conditional pattern bases built and ``visits`` the tree
    nodes visited, first scan included.
    """

    counts: dict[tuple[int, ...], int]
    bases: int
    visits: int


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort and an adjacent-difference
    dedupe. (Flagless ``np.unique`` takes numpy's hash path, which
    costs more than the sort on these integer keys.)"""
    ordered = np.sort(values)
    if ordered.size:
        ordered = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    return ordered


def distinct_items(
    transactions: Sequence[Collection[int]] | EncodedDataset,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every transaction's distinct items: ``(tx, code, items)``.

    ``items`` holds the sorted distinct ids; entry ``j`` says transaction
    ``tx[j]`` contains ``items[code[j]]``, ordered by transaction then id.
    Ids must fit ``int64``.
    """
    raw, sizes = columns_of(transactions)
    items, code = np.unique(raw, return_inverse=True)
    stride = max(items.size, 1)
    keys = sorted_distinct(np.repeat(np.arange(sizes.size, dtype=np.int64), sizes) * stride + code)
    return keys // stride, keys % stride, items


def _below(num_ranks: int, words: int) -> np.ndarray:
    """``(num_ranks + 1, words)``: row ``r`` is the mask of ranks ``< r``."""
    r = np.arange(num_ranks)
    word, shift = r >> 6, (r & 63).astype(np.uint64)
    below = np.zeros((num_ranks + 1, words), dtype=np.uint64)
    below[1:] = np.where(np.arange(words) < word[:, None], _FULL, np.uint64(0))
    below[r + 1, word] = _FULL >> (np.uint64(63) - shift)
    return below


def _pack(rows: np.ndarray, ranks: np.ndarray, num_rows: int, words: int) -> np.ndarray:
    """``(num_rows, words)`` bitmasks with bit ``ranks[j]`` set in row ``rows[j]``."""
    masks = np.zeros(num_rows * words, dtype=np.uint64)
    np.bitwise_or.at(masks, rows * words + (ranks >> 6), _ONE << (ranks & 63).astype(np.uint64))
    return masks.reshape(num_rows, words)


def _set_bits(masks: np.ndarray, num_ranks: int) -> tuple[np.ndarray, np.ndarray]:
    """Every set bit as ``(row, rank)``, row-major, ranks ascending."""
    as_bytes = masks.astype("<u8", copy=False).view(np.uint8)
    return np.nonzero(np.unpackbits(as_bytes, axis=1, count=num_ranks, bitorder="little"))


def _group(trees: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal ``(tree, mask)`` rows: ``(first, inverse)`` — each
    group's first row, and each row's group."""
    key = trees
    for column in masks.T:
        _, key = np.unique(key, return_inverse=True)  # dense, so the product cannot overflow
        _, code = np.unique(column, return_inverse=True)
        key = key * (int(code.max(initial=0)) + 1) + code
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def mine_forest(
    transactions: Sequence[Collection[int]] | EncodedDataset,
    min_count: int,
    max_len: int | None,
) -> ForestMining:
    """FP-growth over ``transactions`` at an absolute ``min_count``.

    Equal to the reference miner's patterns (order included), its
    conditional-base count and its node visits.
    """
    tx, code, items = distinct_items(transactions)
    visits = int(tx.size)  # first scan: every distinct item of every transaction
    freq = np.bincount(code, minlength=items.size)
    frequent = np.flatnonzero(freq >= min_count)
    by_rank = frequent[np.lexsort((frequent, -freq[frequent]))]
    num_ranks = int(by_rank.size)
    if not num_ranks:
        return ForestMining({}, 0, visits)
    rank_of = np.full(items.size, -1, dtype=np.int64)
    rank_of[by_rank] = np.arange(num_ranks)
    rank = rank_of[code]
    kept = rank >= 0
    visits += int(kept.sum())  # the FP-tree inserts: every frequent item
    words = -(-num_ranks // 64)
    below = _below(num_ranks, words)

    # The length-1 forest is the FP-tree itself: one row per transaction.
    masks = _pack(tx[kept], rank[kept], len(transactions), words)
    trees = np.zeros(len(transactions), dtype=np.int64)
    weights = np.ones(len(transactions), dtype=np.int64)
    # This length's (tree, item) pairs, sorted, with their supports; a
    # tree's suffix is the ranks its pattern grew by, in order.
    tree_of = np.zeros(num_ranks, dtype=np.int64)
    item_of = np.arange(num_ranks, dtype=np.int64)
    support = freq[by_rank]
    suffix = np.zeros((1, 0), dtype=np.int64)
    emitted: list[tuple[np.ndarray, np.ndarray]] = []
    bases = 0
    length = 1
    while item_of.size:
        grown = np.column_stack([suffix[tree_of], item_of])
        emitted.append((grown, support))
        if max_len is not None and length >= max_len:
            break
        bases += int(item_of.size)
        # Every item's nodes: a node is a distinct (tree, path through x),
        # its depth the path's length and its count the rows' total.
        row, x = _set_bits(masks, num_ranks)
        through = masks[row] & below[x + 1]
        first, node_of = _group(trees[row], through)
        node_path, node_x = through[first], x[first]
        node_count = np.bincount(node_of, weights=weights[row]).astype(np.int64)
        visits += int(np.bitwise_count(node_path).sum(dtype=np.int64))  # header-chain walks
        node_tree = np.searchsorted(
            tree_of * num_ranks + item_of, trees[row[first]] * num_ranks + node_x
        )
        # Each node's conditional base is its path without x, weighted by
        # its count; the next length's trees keep the frequent items.
        g, i = _set_bits(node_path & below[node_x], num_ranks)
        keys, pair_of = np.unique(node_tree[g] * num_ranks + i, return_inverse=True)
        totals = np.bincount(pair_of, weights=node_count[g]).astype(np.int64)
        frequent_pair = totals >= min_count
        keep = frequent_pair[pair_of]
        visits += int(keep.sum())  # conditional-tree inserts of the filtered bases
        suffix = grown
        tree_of, item_of = np.divmod(keys[frequent_pair], num_ranks)
        support = totals[frequent_pair]
        length += 1
        if max_len is None or length < max_len:
            # The next forest: each node's filtered base is one row.
            g, i = g[keep], i[keep]
            nodes = sorted_distinct(g)
            masks = _pack(np.searchsorted(nodes, g), i, nodes.size, words)
            trees, weights = node_tree[nodes], node_count[nodes]
    return ForestMining(_in_search_order(emitted, items[by_rank], num_ranks), bases, visits)


def _in_search_order(
    emitted: list[tuple[np.ndarray, np.ndarray]], item_of_rank: np.ndarray, num_ranks: int
) -> dict[tuple[int, ...], int]:
    """Patterns as the recursive miner emits them: depth first, items in
    rank-descending order at every level, a pattern before its extensions."""
    depth = len(emitted)
    keys, patterns, supports = [], [], []
    for grown, support in emitted:
        key = np.full((grown.shape[0], depth), -1, dtype=np.int64)
        key[:, : grown.shape[1]] = num_ranks - 1 - grown
        keys.append(key)
        patterns.extend(map(tuple, np.sort(item_of_rank[grown], axis=1).tolist()))
        supports.extend(support.tolist())
    if not patterns:
        return {}
    key = np.concatenate(keys)
    order = np.lexsort(key.T[::-1]).tolist()
    return {patterns[j]: supports[j] for j in order}

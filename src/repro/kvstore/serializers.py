"""Flat-integer serialization of dataset items for the KV codec.

The KV record codec moves flat non-negative integer sequences. Graph and
text items already are that; trees ``(parent, labels)`` are framed as
``[n, parent_0+1, …, parent_{n-1}+1, label_0, …, label_{n-1}]`` (the +1
shift makes the root's ``-1`` representable).

:func:`serialize_item` / :func:`deserialize_item` define the layout one
record at a time and are the reference the tests hold the whole-dataset
forms to. :func:`flatten_items` serializes a dataset in one pass with
no per-record Python, and it is the one place a record becomes
integers: the codec's encoding, the stratifier's pivots and the
flat-kind kernels' columns all start from it. :func:`tree_columns`
reads the tree frames back as columns (what the tree-pivot kernel
takes), and :func:`deserialize_items` maps a partition's records back
to items (what a per-record consumer runs, once per task).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

#: Kinds whose items already are flat integer sequences.
FLAT_KINDS = ("graph", "text", "set")


def serialize_item(kind: str, item) -> list[int]:
    """Flatten one dataset item to a non-negative int list."""
    if kind == "tree":
        parent, labels = item
        if len(parent) != len(labels):
            raise ValueError("tree parent/labels length mismatch")
        return [len(parent), *(int(p) + 1 for p in parent), *(int(l) for l in labels)]
    if kind in FLAT_KINDS:
        return [int(v) for v in item]
    raise ValueError(f"unknown kind {kind!r}")


def deserialize_item(kind: str, flat: Sequence[int]):
    """Invert :func:`serialize_item`."""
    if kind == "tree":
        if not flat:
            raise ValueError("empty tree record")
        n = int(flat[0])
        if len(flat) != 1 + 2 * n:
            raise ValueError("tree record length mismatch")
        parent = tuple(int(p) - 1 for p in flat[1 : 1 + n])
        labels = tuple(int(l) for l in flat[1 + n :])
        return (parent, labels)
    if kind in FLAT_KINDS:
        return [int(v) for v in flat]
    raise ValueError(f"unknown kind {kind!r}")


def _lengths(sequences: Sequence[Sequence[Any]]) -> np.ndarray:
    return np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))


def _concatenated(sequences: Sequence[Sequence[Any]], total: int) -> np.ndarray:
    return np.fromiter(chain.from_iterable(sequences), dtype=np.int64, count=total)


def flatten_items(kind: str, items: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`serialize_item` over a whole dataset, columnar.

    Returns ``(values, offsets)``, both int64: record ``i`` serializes
    to ``values[offsets[i]:offsets[i + 1]]``. Values are not range
    checked here (the codec does that when it packs them as uint32); a
    value outside int64 raises ``OverflowError``. Unsized flat records
    (iterators) are materialised first.
    """
    if kind in FLAT_KINDS:
        try:
            lengths = _lengths(items)
        except TypeError:
            items = [it if hasattr(it, "__len__") else tuple(it) for it in items]
            lengths = _lengths(items)
        values = _concatenated(items, int(lengths.sum()))
    elif kind == "tree":
        if set(map(len, items)) - {2}:
            raise ValueError("tree items are (parent, labels) pairs")
        parents = list(map(itemgetter(0), items))
        labels = list(map(itemgetter(1), items))
        sizes = _lengths(parents)
        if not np.array_equal(sizes, _lengths(labels)):
            raise ValueError("tree parent/labels length mismatch")
        lengths = 1 + 2 * sizes
        nodes = int(sizes.sum())
        values = np.empty(len(items) + 2 * nodes, dtype=np.int64)
        heads = np.cumsum(lengths) - lengths
        values[heads] = sizes
        # Node k of tree j: its parent sits at heads[j] + 1 + k and its
        # label sizes[j] words further on.
        first_node = np.cumsum(sizes) - sizes
        at = np.arange(nodes) + np.repeat(heads + 1 - first_node, sizes)
        values[at] = _concatenated(parents, nodes) + 1
        values[at + np.repeat(sizes, sizes)] = _concatenated(labels, nodes)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return values, offsets


def tree_columns(
    values: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tree frames of :func:`flatten_items` (or of an encoding) as
    int64 ``(sizes, parents, labels)``: tree ``t``'s parent and label
    arrays are the next ``sizes[t]`` entries of the other two. Raises
    :func:`deserialize_item`'s ``ValueError`` on a malformed frame."""
    lengths = np.diff(offsets)
    if (lengths == 0).any():
        raise ValueError("empty tree record")
    heads = offsets[:-1]
    sizes = values[heads].astype(np.int64)
    if not np.array_equal(lengths, 1 + 2 * sizes):
        raise ValueError("tree record length mismatch")
    # Node k of tree t: its parent + 1 sits at heads[t] + 1 + k and its
    # label sizes[t] words further on.
    first_node = np.cumsum(sizes) - sizes
    at = np.arange(int(sizes.sum())) + np.repeat(heads + 1 - first_node, sizes)
    parents = values[at].astype(np.int64) - 1
    labels = values[at + np.repeat(sizes, sizes)].astype(np.int64)
    return sizes, parents, labels


def _tree(flat: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not flat:
        raise ValueError("empty tree record")
    n = flat[0]
    if len(flat) != 1 + 2 * n:
        raise ValueError("tree record length mismatch")
    return tuple([p - 1 for p in flat[1 : 1 + n]]), tuple(flat[1 + n :])


def deserialize_items(kind: str, flats: list[list[int]]) -> list[Any]:
    """:func:`deserialize_item` over a partition's decoded records
    (lists of Python ints, as :func:`~repro.kvstore.codec
    .decode_partition` returns them — flat kinds pass through)."""
    if kind == "tree":
        return [_tree(flat) for flat in flats]
    if kind in FLAT_KINDS:
        return flats
    raise ValueError(f"unknown kind {kind!r}")

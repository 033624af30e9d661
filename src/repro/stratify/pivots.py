"""Domain-specific pivot extraction: trees, graphs and text → integer sets.

Step 1 of the paper's stratifier (Section III-C): every input item is
converted to a *set of items* so that all later stages (sketching,
clustering, partitioning) are domain independent.

- **Trees** are first encoded as Prüfer sequences; pivots ``(a, p, q)``
  are emitted for consecutive sequence entries ``p, q`` with ``a`` their
  least common ancestor. Pivots are formed over node *labels* so that
  structurally similar trees share pivots even when node ids differ.
- **Graphs** use the adjacency list (neighbour set) of each vertex.
- **Text** uses the set of token ids in each document.

All extractors produce non-negative pivot ids in a ``2**32`` universe
from a deterministic (unsalted) SplitMix64 mixer, so runs are
reproducible across processes.

The mixer exists twice, on purpose. :func:`stable_pivot_id` hashes one
integer tuple in the interpreter and is the definition.
:func:`pivot_ids` is the same function over whole columns — ``uint64``
arrays wrap on overflow exactly where the scalar form masks with
``2**64 - 1`` — and is what production runs:
:meth:`PivotExtractor.extract_flat` reads a dataset's codec columns
(its encoding, or ``flatten_items`` of its records), hashes every pivot
of every item in one call and hands MinHash the ragged batch ``(flat,
offsets)`` directly, so no per-pivot Python call and no per-item
``set`` is ever built (a min-wise hash ignores duplicates anyway). The
tree triples exist twice for the same reason.
:func:`_append_tree_triples` builds one tree's in the interpreter and
is the definition (:func:`tree_triples_reference` runs it over a
batch); :func:`repro.perf.tree_kernels.tree_triples` builds every
tree's at once in array passes over the codec's tree frames, byte for
byte the same, and is what ``extract_flat`` and the tree-mining
workload's ``count_records`` run — a batch it rejects is handed back to
the definition, so a bad tree raises the same error either way. :func:`tree_pivots` (the
tree-mining workload's per-record conversion inside the pool workers)
still collects one tree's triples per call. The per-item ``__call__`` /
``extract_all`` forms return sets and are the reference the tests hold
``extract_flat`` to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.kvstore.codec import EncodedDataset
from repro.kvstore.serializers import flatten_items, tree_columns
from repro.perf.tree_kernels import InvalidTree, tree_triples
from repro.stratify.prufer import _depths, _lca, _prufer, _validate_parent_array

#: Size of the pivot universe; MinHash permutations operate modulo a
#: prime just above this.
UNIVERSE_BITS = 32
UNIVERSE_SIZE = 1 << UNIVERSE_BITS

_MASK64 = (1 << 64) - 1
_SEED = 0x51_7C_C1_B7_27_22_0A_95
_GAMMA = 0x9E3779B97F4A7C15
_MUL_A = 0xBF58476D1CE4E5B9
_MUL_B = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """SplitMix64 finaliser — a deterministic, well-mixed 64-bit hash."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MUL_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MUL_B) & _MASK64
    return x ^ (x >> 31)


def stable_pivot_id(*parts: int) -> int:
    """Deterministically hash an integer tuple into the pivot universe."""
    acc = _SEED
    for part in parts:
        acc = _mix64(acc ^ _mix64(int(part)))
    return acc & (UNIVERSE_SIZE - 1)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a ``uint64`` array (wrapping arithmetic)."""
    x = x + np.uint64(_GAMMA)  # a fresh array: the in-place steps below own it
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MUL_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MUL_B)
    x ^= x >> np.uint64(31)
    return x


def _as_uint64_column(col) -> np.ndarray:
    """One id column as a 1-D ``uint64`` array; signed values wrap to
    their two's complement, which is what ``_mix64``'s mask does."""
    arr = col if isinstance(col, np.ndarray) else np.asarray(col, dtype=np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"pivot id columns must be integers, got {arr.dtype}")
    if np.issubdtype(arr.dtype, np.signedinteger):
        arr = arr.astype(np.int64, copy=False).view(np.uint64)
    return np.atleast_1d(arr.astype(np.uint64, copy=False))


def pivot_ids(*columns) -> np.ndarray:
    """:func:`stable_pivot_id` element-wise over integer columns.

    ``pivot_ids(a, b, c)[i] == stable_pivot_id(a[i], b[i], c[i])`` for
    every id that fits ``int64`` (or ``uint64``, in an unsigned array);
    columns broadcast, so a scalar tags a whole column. Returns a
    ``uint64`` array (at least 1-D).
    """
    acc = np.full(1, _SEED, dtype=np.uint64)
    for col in columns:
        acc = _mix64_array(acc ^ _mix64_array(_as_uint64_column(col)))
    return acc & np.uint64(UNIVERSE_SIZE - 1)


def _append_tree_triples(parent, labels, columns: tuple[list, list, list]) -> int:
    """Append one tree's pivot label triples to ``columns``; returns
    how many. The parent array is validated here, once."""
    par_arr = _validate_parent_array(parent)
    lab_arr = np.asarray(labels, dtype=np.int64)
    if lab_arr.size != par_arr.size:
        raise ValueError("labels and parent arrays must have equal length")
    par, lab = par_arr.tolist(), lab_arr.tolist()
    first, second, third = columns
    before = len(first)
    seq = _prufer(par)
    if len(seq) >= 2:
        depth = _depths(par)
        for p, q in zip(seq, seq[1:]):
            first.append(lab[_lca(par, depth, p, q)])
            second.append(lab[p])
            third.append(lab[q])
    # Parent-child label pairs guarantee coverage of every edge's labels,
    # and are the only pivots of a tree too small for a Prüfer pair (a
    # one-node tree has none).
    for child, p in enumerate(par):
        if p >= 0:
            first.append(lab[p])
            second.append(lab[child])
            third.append(0)
    return len(first) - before


def tree_triples_reference(items) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.perf.tree_kernels.tree_triples` one tree at a time
    (:func:`_append_tree_triples` per record) — the oracle the batch
    kernel is held to, byte for byte and error for error."""
    columns: tuple[list, list, list] = ([], [], [])
    offsets = [0]
    for parent, labels in items:
        offsets.append(offsets[-1] + _append_tree_triples(parent, labels, columns))
    first, second, third = (np.array(col, dtype=np.int64) for col in columns)
    return first, second, third, np.array(offsets, dtype=np.int64)


def tree_pivots(parent: Sequence[int], labels: Sequence[int]) -> set[int]:
    """Pivot set of one labelled tree.

    For consecutive Prüfer entries ``(p, q)`` the pivot is the label
    triple ``(label[lca(p,q)], label[p], label[q])`` hashed into the
    universe; every parent-child edge adds ``(label[parent],
    label[child], 0)``, which covers every edge's labels and gives a
    tree too small for a Prüfer pair (< 4 nodes) its only pivots. A
    one-node tree has no edge and no pair, so it maps to the empty set
    (and its sketch row is MinHash's empty-slot sentinel).
    """
    columns: tuple[list, list, list] = ([], [], [])
    _append_tree_triples(parent, labels, columns)
    return set(pivot_ids(*columns).tolist())


def graph_pivots(neighbours: Iterable[int]) -> set[int]:
    """Pivot set of one graph vertex: its neighbour ids, hashed.

    The paper uses the adjacency list directly as the pivot set; hashing
    keeps the universe uniform across domains.
    """
    return {stable_pivot_id(int(v), 1, 1) for v in neighbours}


def text_pivots(tokens: Iterable[int]) -> set[int]:
    """Pivot set of one document: its token ids, hashed."""
    return {stable_pivot_id(int(t), 2, 2) for t in tokens}


#: Domain tag hashed beside a raw graph / text id.
_DOMAIN_TAG = {"graph": 1, "text": 2}


@dataclass(frozen=True)
class PivotExtractor:
    """Uniform front-end over the three domain extractors.

    ``kind`` selects the domain: ``"tree"`` items are
    ``(parent_array, labels)`` tuples; ``"graph"`` items are neighbour
    iterables; ``"text"`` items are token-id iterables; ``"set"`` items
    are already pivot sets and pass through unchanged.
    """

    kind: str

    _KINDS = ("tree", "graph", "text", "set")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")

    def __call__(self, item) -> set[int]:
        if self.kind == "tree":
            parent, labels = item
            return tree_pivots(parent, labels)
        if self.kind == "graph":
            return graph_pivots(item)
        if self.kind == "text":
            return text_pivots(item)
        return {int(x) for x in item}

    def extract_all(self, items: Iterable) -> list[set[int]]:
        """Per-item pivot sets, preserving order — the reference form
        of :meth:`extract_flat`."""
        return [self(item) for item in items]

    def extract_flat(self, items: Iterable | EncodedDataset) -> tuple[np.ndarray, np.ndarray]:
        """Pivots of a whole dataset — its encoding, or its records,
        flattened first by :func:`~repro.kvstore.serializers
        .flatten_items` — as one ragged batch.

        Returns ``(flat, offsets)``: item ``i``'s pivots are
        ``flat[offsets[i]:offsets[i + 1]]``, equal *as a set* to
        ``self(items[i])`` (duplicates are kept; MinHash ignores them).
        ``flat`` is ``uint64`` pivot ids, except for ``"set"`` items,
        which pass through unhashed as ``int64``. A graph/text id beyond
        int64 raises ``ValueError``, and so does a bad tree: the first
        one the batch kernel rejects goes through
        :func:`_append_tree_triples`, and a record batch the codec will
        not frame through :func:`tree_triples_reference` whole.
        """
        records = None
        if isinstance(items, EncodedDataset):
            if items.kind != self.kind:
                raise ValueError(f"dataset encoded as {items.kind!r}, not {self.kind!r}")
            values, offsets = items.values, items.offsets
        else:
            records = list(items)
            try:
                values, offsets = flatten_items(self.kind, records)
            except (TypeError, ValueError, OverflowError) as exc:
                if self.kind == "tree":
                    *columns, offsets = tree_triples_reference(records)
                    return pivot_ids(*columns), offsets
                if isinstance(exc, OverflowError):
                    raise ValueError(f"{self.kind} id does not fit int64") from None
                raise
        if self.kind == "tree":
            try:
                *columns, offsets = tree_triples(*tree_columns(values, offsets))
            except InvalidTree as bad:
                i = bad.index
                parent, labels = records[i] if records else items.gather([i]).records()[0]
                _append_tree_triples(parent, labels, ([], [], []))
                raise AssertionError(f"tree {i} failed a batch check only") from None
            return pivot_ids(*columns), offsets
        if self.kind == "set":
            return values.astype(np.int64, copy=False), offsets
        tag = _DOMAIN_TAG[self.kind]
        return pivot_ids(values, tag, tag), offsets

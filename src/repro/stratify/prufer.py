"""Prüfer sequences for labelled trees.

The paper represents trees via Prüfer sequences (Prüfer 1918) before
pivot extraction. A labelled tree on ``n`` nodes maps bijectively to a
sequence of ``n - 2`` node ids; we implement both directions plus the
rooted-tree adjacency helpers the pivot extractor needs.

Trees are given as parent arrays: ``parent[i]`` is the parent of node
``i`` and the root has ``parent[root] == -1``. Node ids are 0-based and
contiguous.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np


def _validate_parent_array(parent: Sequence[int]) -> np.ndarray:
    arr = np.asarray(parent, dtype=np.int64)
    n = arr.size
    if n == 0:
        raise ValueError("tree must have at least one node")
    roots = np.flatnonzero(arr == -1)
    if roots.size != 1:
        raise ValueError(f"tree must have exactly one root, found {roots.size}")
    bad = (arr < -1) | (arr >= n)
    if bad.any():
        raise ValueError("parent ids out of range")
    # Reject self-loops (root already excluded by the -1 check).
    if (arr == np.arange(n)).any():
        raise ValueError("node cannot be its own parent")
    return arr


def _adjacency(par: list[int]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in par]
    for child, p in enumerate(par):
        if p >= 0:
            adj[child].append(p)
            adj[p].append(child)
    return adj


def adjacency_from_parents(parent: Sequence[int]) -> list[list[int]]:
    """Undirected adjacency lists of the tree defined by ``parent``."""
    return _adjacency(_validate_parent_array(parent).tolist())


def _prufer(par: list[int]) -> list[int]:
    """:func:`prufer_sequence` of an already validated parent list."""
    n = len(par)
    if n <= 2:
        return []
    # Cycle check: a valid parent array on n nodes with one root is always
    # a tree (n-1 edges, connected via parent pointers to the root) unless
    # a cycle exists among parent pointers; detect by walking up.
    seen_root = [False] * n
    for start in range(n):
        path = []
        v = start
        while v != -1 and not seen_root[v]:
            path.append(v)
            if len(path) > n:
                raise ValueError("cycle detected in parent array")
            v = par[v]
        for u in path:
            seen_root[u] = True

    # Live neighbours per node: a removed leaf is discarded from its
    # neighbour's set, so a leaf's set holds exactly one node.
    live = [set(a) for a in _adjacency(par)]
    leaves = [i for i in range(n) if len(live[i]) == 1]
    heapq.heapify(leaves)
    seq: list[int] = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        (nbr,) = live[leaf]
        seq.append(nbr)
        live[nbr].discard(leaf)
        if len(live[nbr]) == 1:
            heapq.heappush(leaves, nbr)
    return seq


def prufer_sequence(parent: Sequence[int]) -> list[int]:
    """Compute the Prüfer sequence of the tree given as a parent array.

    Uses the classic leaf-pruning construction: repeatedly remove the
    smallest-id leaf and emit its neighbour, stopping when two nodes
    remain. Trees with fewer than three nodes have the empty sequence.

    Raises
    ------
    ValueError
        If ``parent`` does not describe a tree (cycle or disconnected).
    """
    return _prufer(_validate_parent_array(parent).tolist())


def tree_from_prufer(seq: Sequence[int], n: int | None = None) -> list[int]:
    """Reconstruct a parent array from a Prüfer sequence.

    The resulting tree is rooted at the largest node id (``n - 1``),
    which is always one of the final two nodes of the decoding.

    Parameters
    ----------
    seq:
        Prüfer sequence (length ``n - 2``).
    n:
        Number of nodes; defaults to ``len(seq) + 2``.
    """
    seq = list(seq)
    if n is None:
        n = len(seq) + 2
    if n < 1:
        raise ValueError("need at least one node")
    if len(seq) != max(n - 2, 0):
        raise ValueError(f"sequence length {len(seq)} does not match n={n}")
    if n == 1:
        return [-1]
    if n == 2:
        return [1, -1]
    if any(not 0 <= s < n for s in seq):
        raise ValueError("sequence entries out of range")

    degree = np.ones(n, dtype=np.int64)
    for s in seq:
        degree[s] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    parent = [-1] * n
    for s in seq:
        leaf = heapq.heappop(leaves)
        parent[leaf] = s
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    # Root at the larger id; attach the smaller beneath it.
    lo, hi = min(u, v), max(u, v)
    parent[lo] = hi
    parent[hi] = -1
    return parent


def _depths(par: list[int]) -> list[int]:
    """:func:`depths_from_parents` of an already validated parent list."""
    depth = [-1] * len(par)
    for start in range(len(par)):
        if depth[start] >= 0:
            continue
        path = []
        v = start
        while v != -1 and depth[v] < 0:
            path.append(v)
            v = par[v]
        base = -1 if v == -1 else depth[v]
        for offset, u in enumerate(reversed(path), start=1):
            depth[u] = base + offset
    return depth


def depths_from_parents(parent: Sequence[int]) -> np.ndarray:
    """Depth of every node (root has depth 0)."""
    return np.array(_depths(_validate_parent_array(parent).tolist()), dtype=np.int64)


def _lca(par, depth, p: int, q: int) -> int:
    while depth[p] > depth[q]:
        p = par[p]
    while depth[q] > depth[p]:
        q = par[q]
    while p != q:
        p = par[p]
        q = par[q]
    return p


def lca(parent: Sequence[int], depth: np.ndarray, p: int, q: int) -> int:
    """Least common ancestor of ``p`` and ``q`` by depth-equalising walk."""
    return int(_lca(np.asarray(parent, dtype=np.int64), depth, p, q))

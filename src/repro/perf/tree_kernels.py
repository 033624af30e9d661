"""Pivot triples of a whole batch of labelled trees, in array passes.

The tree pivots of the stratifier (Section III-C) are label triples:
``(label[lca(p, q)], label[p], label[q])`` for consecutive Prüfer
entries ``p, q``, then ``(label[parent], label[child], 0)`` for every
non-root node in id order. The reference builds them one tree at a time
(``repro.stratify.pivots._append_tree_triples``: a heap-driven Prüfer
loop and a walking LCA per pair). :func:`tree_triples` builds the same
columns, in the same per-tree order, for every tree of a batch at once:

- the batch arrives as columns — node counts, parent ids and labels,
  each concatenated over the batch, as the KV codec's tree frames hold
  them (``repro.kvstore.serializers.tree_columns``) — and is validated
  with per-node masks;
- depths and the ``2**j``-th ancestors come from pointer jumping, which
  also finds cycles (a node that never reaches its root);
- the Prüfer sequences of all trees run in lockstep, one step per
  removed leaf: at step ``s`` every tree with more than ``s + 2`` nodes
  removes its smallest live degree-1 node. That leaf's neighbour is its
  parent while the parent is live and otherwise its one live child,
  which each node carries as the id sum of its live children, so a
  root that becomes a leaf needs no search;
- the LCA of every consecutive pair is one binary-lifting pass;
- the parent-child triples fill the remaining slots in one scatter.

The cost is one short array pass per Prüfer step, so the step loop runs
as many times as the largest tree has nodes, whatever the batch size.
Like every kernel in :mod:`repro.perf` this module imports numpy only;
the caller keeps the reference path and turns a rejected batch into the
reference's own error (:class:`InvalidTree` names the first bad tree).
"""

from __future__ import annotations

import numpy as np


class InvalidTree(Exception):
    """The batch cannot be converted as given: ``index`` is its first
    record that is not a valid tree."""

    def __init__(self, index: int):
        super().__init__(f"record {index} is not a tree")
        self.index = index


def _ancestors(up: np.ndarray, levels: int) -> list[np.ndarray]:
    """``[up, up∘up, …]``: the ``2**j``-th ancestor of every node for
    ``j = 0 … levels`` (a root is its own ancestor)."""
    table = [up]
    for _ in range(levels):
        table.append(table[-1][table[-1]])
    return table


def _depths(up: np.ndarray, table: list[np.ndarray]) -> np.ndarray:
    """Depth of every node: pointer jumping, summing the jump lengths."""
    depth = (up != np.arange(up.size)).astype(np.int64)
    for anc in table[:-1]:
        depth += depth[anc]
    return depth


def _prufer_lockstep(
    sizes: np.ndarray, base: np.ndarray, par: np.ndarray, trees: np.ndarray
) -> np.ndarray:
    """Prüfer sequences of ``trees`` (all with ≥ 3 nodes), in lockstep.

    Returns ``(len(trees), max_size - 2)`` local node ids; row ``b`` is
    tree ``trees[b]``'s sequence in its first ``size - 2`` entries.
    Nodes live in a padded ``(B, width)`` layout, trees largest first,
    so the trees still pruning at a step are a leading block of rows;
    the last cell stands for a root's missing parent and is never live.
    """
    perm = np.argsort(-sizes[trees], kind="stable")
    n = sizes[trees[perm]]
    width = int(n[0])
    nodes = int(n.size) * width
    row_base = np.arange(n.size) * width
    local = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
    cell = np.repeat(row_base, n) + local
    parent = par[np.repeat(base[trees[perm]], n) + local]
    child = parent >= 0
    up = np.full(nodes + 1, nodes, dtype=np.int64)  # cell `nodes`: no parent
    up[cell[child]] = (cell - local + parent)[child]

    parents = up[cell[child]]
    degree = np.bincount(parents, minlength=nodes + 1)
    degree[cell[child]] += 1
    child_sum = np.bincount(parents, weights=cell[child], minlength=nodes + 1).astype(np.int64)
    leaf_of = degree[:nodes].reshape(n.size, width)  # a view: stays current
    seq = np.zeros((n.size, width - 2), dtype=np.int64)
    active = np.searchsorted(-n, -np.arange(2, width), side="left")  # rows with n > s + 2
    for step in range(width - 2):
        rows = int(active[step])
        leaf = row_base[:rows] + np.argmax(leaf_of[:rows] == 1, axis=1)
        parent_of_leaf = up[leaf]
        parent_live = degree[parent_of_leaf] > 0
        nbr = np.where(parent_live, parent_of_leaf, child_sum[leaf])
        seq[:rows, step] = nbr - row_base[:rows]
        degree[leaf] = 0
        degree[nbr] -= 1
        child_sum[nbr] -= np.where(parent_live, leaf, 0)
    out = np.empty_like(seq)
    out[perm] = seq
    return out


def tree_triples(
    sizes: np.ndarray, par: np.ndarray, lab: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pivot label triples of a batch of labelled trees, given as int64
    columns: tree ``t`` has ``sizes[t]`` nodes, and its parent ids and
    labels are the next ``sizes[t]`` entries of ``par`` and ``lab``.

    Returns ``(first, second, third, offsets)``: tree ``t``'s triples
    are rows ``offsets[t]:offsets[t + 1]`` of the three ``int64``
    columns, in the reference's order (Prüfer pairs, then children in
    id order). Raises :class:`InvalidTree` naming the first tree that
    is empty, has not exactly one root, has a parent id out of range or
    equal to its own id, or has a cycle.
    """
    num = sizes.size
    base = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(num), sizes)
    local = np.arange(par.size) - base[tree_of]

    bad = sizes == 0
    bad |= np.bincount(tree_of[par == -1], minlength=num) != 1
    bad[tree_of[(par < -1) | (par >= sizes[tree_of]) | (par == local)]] = True
    # Pointer jumping over the trees that passed: a node whose 2**j-th
    # ancestor (2**j ≥ its tree's size) is not a root sits on a cycle.
    ok = ~bad[tree_of] & (par >= 0)
    up = np.arange(par.size)
    up[ok] = (base[tree_of] + par)[ok]
    levels = max(1, (int(sizes.max(initial=1)) - 1).bit_length())
    table = _ancestors(up, levels)
    bad[tree_of[par[table[-1]] != -1]] = True
    if bad.any():
        raise InvalidTree(int(np.argmax(bad)))

    pairs = np.maximum(sizes - 3, 0)
    counts = pairs + sizes - 1
    offsets = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    first = np.empty(int(offsets[-1]), dtype=np.int64)
    second = np.empty_like(first)
    third = np.zeros_like(first)

    pruned = np.flatnonzero(sizes >= 4)
    is_pair = np.zeros(first.size, dtype=bool)
    if pruned.size:
        seq = _prufer_lockstep(sizes, base, par, pruned)
        valid = np.arange(seq.shape[1] - 1) < pairs[pruned][:, None]
        row, col = np.nonzero(valid)
        tree = pruned[row]
        p = base[tree] + seq[:, :-1][valid]
        q = base[tree] + seq[:, 1:][valid]
        pos = offsets[tree] + col
        is_pair[pos] = True
        first[pos] = lab[_lca(table, _depths(up, table), p, q)]
        second[pos] = lab[p]
        third[pos] = lab[q]
    child = par >= 0
    slots = np.flatnonzero(~is_pair)
    first[slots] = lab[(base[tree_of] + par)[child]]
    second[slots] = lab[child]
    return first, second, third, offsets


def _lca(table: list[np.ndarray], depth: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Least common ancestors of node pairs by binary lifting."""
    dp, dq = depth[p], depth[q]
    u, v = np.where(dp < dq, q, p), np.where(dp < dq, p, q)
    lift = np.abs(dp - dq)
    levels = int(np.maximum(dp, dq).max(initial=0)).bit_length()
    for j, anc in enumerate(table[:levels]):
        u = np.where(lift >> j & 1, anc[u], u)
    for anc in reversed(table[:levels]):
        au, av = anc[u], anc[v]
        move = au != av
        u, v = np.where(move, au, u), np.where(move, av, v)
    return np.where(u == v, u, table[0][u])

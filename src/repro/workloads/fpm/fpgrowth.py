"""FP-growth frequent itemset mining (Han, Pei & Yin, SIGMOD 2000).

Third mining backend (with Apriori and Eclat): compresses the
transactions into an FP-tree — a prefix tree over frequency-descending
item orderings with per-item header chains — and mines it recursively
via conditional pattern bases, generating no candidate sets at all.

Work units count tree-node visits plus conditional-base constructions,
the cost drivers of the pattern-growth family; the output is bitwise
identical to the other miners (property-tested), so FP-growth drops
into the framework's two-phase run unchanged.

:meth:`FPGrowthMiner.mine` mines every conditional tree of one pattern
length at once, as an array forest (:mod:`repro.perf.fpgrowth_kernels`);
:meth:`FPGrowthMiner.mine_reference`, the pointer-tree recursion below,
is its oracle — patterns, base counts and node visits are identical.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

from repro.perf.fpgrowth_kernels import mine_forest
from repro.workloads.fpm.apriori import LocalMiningWorkload, MiningOutput, Pattern


@dataclass
class _FPNode:
    """One FP-tree node: an item with a support count and children."""

    item: int
    count: int = 0
    parent: "_FPNode | None" = None
    children: dict[int, "_FPNode"] = field(default_factory=dict)
    next_same_item: "_FPNode | None" = None


class _FPTree:
    """FP-tree with header chains, built from (itemset, count) pairs."""

    def __init__(self) -> None:
        self.root = _FPNode(item=-1)
        self.headers: dict[int, _FPNode] = {}
        self.item_counts: dict[int, int] = defaultdict(int)
        self.nodes_created = 0

    def insert(self, items: Sequence[int], count: int) -> int:
        """Insert one ordered transaction; returns nodes visited."""
        node = self.root
        visited = 0
        for item in items:
            visited += 1
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item=item, parent=node)
                node.children[item] = child
                child.next_same_item = self.headers.get(item)
                self.headers[item] = child
                self.nodes_created += 1
            child.count += count
            self.item_counts[item] += count
            node = child
        return visited

    def prefix_paths(self, item: int) -> tuple[list[tuple[list[int], int]], int]:
        """Conditional pattern base of ``item``: (path, count) pairs.

        Returns the base and the number of node visits walking it.
        """
        paths: list[tuple[list[int], int]] = []
        visited = 0
        node = self.headers.get(item)
        while node is not None:
            path: list[int] = []
            parent = node.parent
            while parent is not self.root:
                path.append(parent.item)
                parent = parent.parent
                visited += 1
            if path:
                paths.append((list(reversed(path)), node.count))
            node = node.next_same_item
            visited += 1
        return paths, visited


@dataclass
class FPGrowthMiner:
    """Configured FP-growth miner (same contract as :class:`AprioriMiner`)."""

    min_support: float
    max_len: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")

    def mine(self, transactions: Sequence[Collection[int]]) -> MiningOutput:
        """Mine all frequent itemsets of ``transactions`` (ids must fit
        ``int64``), one array forest per pattern length."""
        n = len(transactions)
        min_count = max(1, int(-(-self.min_support * n // 1)))
        forest = mine_forest(transactions, min_count, self.max_len)
        return MiningOutput(
            counts=forest.counts,
            num_transactions=n,
            candidates_generated=forest.bases,
            work_units=float(forest.visits),
        )

    def mine_reference(self, transactions: Sequence[Iterable[int]]) -> MiningOutput:
        """Pointer-tree recursion — the array forest's oracle."""
        tx = [sorted(set(int(i) for i in t)) for t in transactions]
        n = len(tx)
        if n == 0:
            return MiningOutput(counts={}, num_transactions=0, candidates_generated=0, work_units=0.0)
        min_count = max(1, int(-(-self.min_support * n // 1)))

        work = 0.0
        # First scan: global item frequencies.
        freq: dict[int, int] = defaultdict(int)
        for t in tx:
            work += len(t)
            for item in t:
                freq[item] += 1
        frequent_items = {i for i, c in freq.items() if c >= min_count}

        # Second scan: build the FP-tree over frequency-descending,
        # id-ascending (for determinism) orderings.
        def order_key(item: int) -> tuple[int, int]:
            return (-freq[item], item)

        tree = _FPTree()
        for t in tx:
            ordered = sorted((i for i in t if i in frequent_items), key=order_key)
            work += tree.insert(ordered, 1)

        result: dict[Pattern, int] = {}
        bases_built = 0

        def mine_tree(tree: _FPTree, suffix: tuple[int, ...]) -> None:
            nonlocal work, bases_built
            # Items in ascending frequency (reverse build order).
            items = sorted(tree.item_counts, key=order_key, reverse=True)
            for item in items:
                support = tree.item_counts[item]
                if support < min_count:
                    continue
                pattern = tuple(sorted((item,) + suffix))
                result[pattern] = support
                if self.max_len is not None and len(pattern) >= self.max_len:
                    continue
                base, visited = tree.prefix_paths(item)
                work += visited
                bases_built += 1
                if not base:
                    continue
                cond = _FPTree()
                # Conditional tree keeps only conditionally frequent items.
                cond_freq: dict[int, int] = defaultdict(int)
                for path, count in base:
                    for pitem in path:
                        cond_freq[pitem] += count
                keep = {i for i, c in cond_freq.items() if c >= min_count}
                for path, count in base:
                    filtered = [i for i in path if i in keep]
                    if filtered:
                        work += cond.insert(filtered, count)
                if cond.item_counts:
                    mine_tree(cond, pattern)

        mine_tree(tree, ())
        return MiningOutput(
            counts=result,
            num_transactions=n,
            candidates_generated=bases_built,
            work_units=work,
        )


class FPGrowthWorkload(LocalMiningWorkload):
    """Per-partition FP-growth mining — drop-in for :class:`AprioriWorkload`."""

    name = "fpgrowth-local"

    def __init__(self, min_support: float, max_len: int | None = None):
        super().__init__(FPGrowthMiner(min_support=min_support, max_len=max_len))

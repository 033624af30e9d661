"""Frequent tree mining via LCA-pivot itemsets.

The paper runs Tatikonda & Parthasarathy's frequent tree miner. Its
stratifier already reduces each tree to a set of LCA-label pivots
(Section III-C step 1); mining frequent *pivot sets* preserves the cost
structure the partitioning framework targets — the candidate space
blows up exactly when a partition concentrates structurally similar
trees — while staying domain independent. Records are
``(parent_array, labels)`` pairs; the workload converts them to pivot
sets (charging work for the conversion, which scans every node) and
then runs Apriori over the pivot transactions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kvstore.codec import EncodedDataset, records_of
from repro.stratify.pivots import PivotExtractor, tree_pivots
from repro.workloads.base import WorkloadResult
from repro.workloads.fpm.apriori import AprioriMiner, LocalMiningWorkload


def trees_to_pivot_sets(records: Sequence) -> tuple[list[list[int]], float]:
    """Convert ``(parent, labels)`` records to sorted pivot lists.

    Returns the pivot transactions and the conversion work (total node
    count — each node is touched a constant number of times by Prüfer
    encoding and LCA walks).
    """
    transactions: list[list[int]] = []
    work = 0.0
    for parent, labels in records:
        transactions.append(sorted(tree_pivots(parent, labels)))
        work += len(parent)
    return transactions, work


class TreeMiningWorkload(LocalMiningWorkload):
    """Per-partition frequent tree (pivot-set) mining."""

    name = "tree-mining"

    def __init__(self, min_support: float, max_len: int | None = 3):
        super().__init__(AprioriMiner(min_support=min_support, max_len=max_len))

    def run(self, records: Sequence | EncodedDataset) -> WorkloadResult:
        # The per-tree conversion is the tree miner's probed, billed
        # work, so it stays per tree on purpose, and so does decoding a
        # staged partition into (parent, labels) records for it (≈ 2 %
        # of the run). The batch kernel that ``count_records`` uses
        # would make the worker ≈ 4× cheaper, and the α=1 warm plans of
        # the e2e benchmark's set-ups then idle node 2: [309, 91, 0, 0],
        # and [276–329, 71–124, 0, 0] over seeds 1–3 (ROADMAP item
        # 5(a)). Once that check is replaced, phase 1 mines
        # ``PreparedInput.counted`` and this conversion goes (ROADMAP
        # item 6).
        records = records_of(records)
        transactions, convert_work = trees_to_pivot_sets(records)
        out = self.miner.mine(transactions)
        return WorkloadResult(
            work_units=convert_work + out.work_units,
            output=out,
            stats={
                "patterns": len(out.counts),
                "candidates": out.candidates_generated,
                "trees": len(records),
            },
        )

    def count_records(self, partition: Sequence | EncodedDataset) -> list[list[int]]:
        """``trees_to_pivot_sets(partition)[0]`` from one batch of pivot
        ids: one sort-and-dedupe of ``tree << 32 | id`` gives every
        tree's sorted pivot set. ``partition`` is records or their
        encoding; ``prepare`` passes the staged encoding, and ``run``
        keeps the per-tree conversion (see there)."""
        flat, offsets = PivotExtractor("tree").extract_flat(partition)
        trees = offsets.size - 1
        tree = np.repeat(np.arange(trees, dtype=np.uint64), np.diff(offsets))
        keys = np.sort(tree << np.uint64(32) | flat)
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        ids = (keys & np.uint64(0xFFFFFFFF)).tolist()
        ends = np.cumsum(np.bincount((keys >> np.uint64(32)).astype(np.intp), minlength=trees))
        return [ids[lo:hi] for lo, hi in zip([0, *ends[:-1].tolist()], ends.tolist())]

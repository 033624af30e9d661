"""Eclat vertical frequent itemset mining (Zaki et al., KDD 1997).

Extension backend (cited by the paper as [21]): mines the same frequent
itemsets as Apriori but via depth-first tidlist intersection in the
vertical layout. Used as an ablation to show the partitioning framework
is miner-agnostic — work units count tidlist intersection elements, the
vertical analog of candidate–transaction checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.perf.fpm_kernels import intersect_supports, pack_transactions
from repro.workloads.fpm.apriori import LocalMiningWorkload, MiningOutput, Pattern


@dataclass
class EclatMiner:
    """Configured Eclat miner (equivalent output to :class:`AprioriMiner`).

    :meth:`mine` keeps tidlists as packed uint64 bitmaps and batches
    every DFS node's extension intersections — one ``np.bitwise_and`` +
    popcount; :meth:`mine_reference`, the original frozenset DFS, is
    its oracle. Traversal order, candidate counts and work units are
    identical.
    """

    min_support: float
    max_len: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")

    def mine(self, transactions: Sequence[Iterable[int]]) -> MiningOutput:
        """Mine all frequent itemsets via DFS tidlist intersection."""
        bitmap = pack_transactions(transactions)
        n = bitmap.num_transactions
        if n == 0:
            return MiningOutput(counts={}, num_transactions=0, candidates_generated=0, work_units=0.0)
        min_count = max(1, int(-(-self.min_support * n // 1)))

        work = float(bitmap.total_occurrences)
        candidates = bitmap.num_items
        item_support = {
            int(i): int(c) for i, c in zip(bitmap.items, bitmap.supports)
        }
        item_row = {int(i): r for r, i in enumerate(bitmap.items)}

        frequent_items = sorted(i for i, c in item_support.items() if c >= min_count)
        result: dict[Pattern, int] = {(i,): item_support[i] for i in frequent_items}

        # Stack entries mirror the reference exactly: (prefix, prefix
        # tidlist as a bitmap row, its support, candidate extensions).
        stack: list[tuple[Pattern, np.ndarray, int, list[int]]] = [
            ((i,), bitmap.bits[item_row[i]], item_support[i], frequent_items[idx + 1 :])
            for idx, i in enumerate(frequent_items)
        ]
        while stack:
            prefix, tids, tids_support, extensions = stack.pop()
            if self.max_len is not None and len(prefix) >= self.max_len:
                continue
            if not extensions:
                continue
            candidates += len(extensions)
            ext_rows = np.array([item_row[e] for e in extensions], dtype=np.int64)
            inter, counts = intersect_supports(tids, ext_rows, bitmap)
            work += float(
                sum(min(tids_support, item_support[e]) for e in extensions)
            )
            survivors = [
                (ext, inter[pos], int(counts[pos]))
                for pos, ext in enumerate(extensions)
                if counts[pos] >= min_count
            ]
            items_only = [e for e, _, _ in survivors]
            for pos, (ext, bits, support) in enumerate(survivors):
                pattern = prefix + (ext,)
                result[pattern] = support
                stack.append((pattern, bits, support, items_only[pos + 1 :]))

        return MiningOutput(
            counts=result,
            num_transactions=n,
            candidates_generated=candidates,
            work_units=work,
        )

    def mine_reference(self, transactions: Sequence[Iterable[int]]) -> MiningOutput:
        """Frozenset-tidlist DFS — the bitmap kernel's oracle."""
        tx = [set(t) for t in transactions]
        n = len(tx)
        if n == 0:
            return MiningOutput(counts={}, num_transactions=0, candidates_generated=0, work_units=0.0)
        min_count = max(1, int(-(-self.min_support * n // 1)))

        tidlists: dict[int, frozenset[int]] = {}
        work = 0.0
        for tid, t in enumerate(tx):
            work += len(t)
            for item in t:
                tidlists.setdefault(item, set()).add(tid)  # type: ignore[arg-type]
        tidlists = {i: frozenset(s) for i, s in tidlists.items()}

        frequent_items = sorted(i for i, s in tidlists.items() if len(s) >= min_count)
        result: dict[Pattern, int] = {(i,): len(tidlists[i]) for i in frequent_items}
        candidates = len(tidlists)

        stack: list[tuple[Pattern, frozenset[int], list[int]]] = [
            ((i,), tidlists[i], frequent_items[idx + 1 :])
            for idx, i in enumerate(frequent_items)
        ]
        while stack:
            prefix, tids, extensions = stack.pop()
            if self.max_len is not None and len(prefix) >= self.max_len:
                continue
            survivors: list[tuple[int, frozenset[int]]] = []
            for ext in extensions:
                candidates += 1
                inter = tids & tidlists[ext]
                work += min(len(tids), len(tidlists[ext]))
                if len(inter) >= min_count:
                    survivors.append((ext, inter))
            items_only = [e for e, _ in survivors]
            for pos, (ext, inter) in enumerate(survivors):
                pattern = prefix + (ext,)
                result[pattern] = len(inter)
                stack.append((pattern, inter, items_only[pos + 1 :]))

        return MiningOutput(
            counts=result,
            num_transactions=n,
            candidates_generated=candidates,
            work_units=work,
        )


class EclatWorkload(LocalMiningWorkload):
    """Per-partition Eclat mining — drop-in for :class:`AprioriWorkload`."""

    name = "eclat-local"

    def __init__(self, min_support: float, max_len: int | None = None):
        super().__init__(EclatMiner(min_support=min_support, max_len=max_len))

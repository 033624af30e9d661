"""Apriori frequent itemset mining (Agrawal & Srikant, VLDB 1994).

The levelwise algorithm: frequent 1-itemsets, then repeatedly join
``F_{k-1}`` with itself, prune candidates with an infrequent subset, and
count survivors against the transactions. The *work-unit* metric counts
candidate–transaction containment checks — exactly the search-space
measure the paper identifies ("the total number of candidate patterns
represents the search space – the more the number of candidate
patterns, the slower the run time"), which is what statistical skew
inflates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.perf.fpm_kernels import (
    candidate_supports,
    pack_transactions,
    pattern_supports,
)
from repro.workloads.base import Workload, WorkloadResult

Pattern = tuple[int, ...]


@dataclass
class MiningOutput:
    """Local mining result: pattern → absolute support count."""

    counts: dict[Pattern, int]
    num_transactions: int
    candidates_generated: int
    work_units: float

    def patterns(self) -> set[Pattern]:
        return set(self.counts)


@dataclass
class AprioriMiner:
    """Configured Apriori miner.

    Parameters
    ----------
    min_support:
        Relative support threshold in (0, 1].
    max_len:
        Optional cap on pattern length (None = unbounded).

    :meth:`mine` counts candidates on the packed vertical bitmaps of
    :mod:`repro.perf.fpm_kernels`; :meth:`mine_reference`, the original
    per-transaction containment scan, is its oracle — supports,
    candidate counts and work units are bit-identical.
    """

    min_support: float
    max_len: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")

    def mine(self, transactions: Sequence[Iterable[int]]) -> MiningOutput:
        """Mine all frequent itemsets of ``transactions``, levelwise
        over the packed vertical bitmap.

        Identical candidate generation (the shared
        :meth:`_generate_candidates`), identical accounting: level 1
        charges Σ distinct items per transaction, level ``k`` charges
        ``n_tx`` checks per candidate — exactly what the reference scan
        performs — so work units match to the digit.
        """
        bitmap = pack_transactions(transactions)
        n = bitmap.num_transactions
        if n == 0:
            return MiningOutput(counts={}, num_transactions=0, candidates_generated=0, work_units=0.0)
        min_count = max(1, int(-(-self.min_support * n // 1)))  # ceil

        work = float(bitmap.total_occurrences)
        candidates_total = bitmap.num_items

        frequent: dict[Pattern, int] = {
            (int(item),): int(c)
            for item, c in zip(bitmap.items, bitmap.supports)
            if c >= min_count
        }
        result = dict(frequent)

        k = 2
        current = sorted(frequent)
        while current and (self.max_len is None or k <= self.max_len):
            candidates = self._generate_candidates(current, k)
            candidates_total += len(candidates)
            if not candidates:
                break
            work += float(n * len(candidates))
            rows = bitmap.rows_for(np.asarray(candidates, dtype=np.int64))
            supports = candidate_supports(bitmap, rows)
            survivors = [
                (cand, int(c))
                for cand, c in zip(candidates, supports)
                if c >= min_count
            ]
            current = sorted(c for c, _ in survivors)
            for cand, c in survivors:
                result[cand] = c
            k += 1

        return MiningOutput(
            counts=result,
            num_transactions=n,
            candidates_generated=candidates_total,
            work_units=work,
        )

    def mine_reference(self, transactions: Sequence[Iterable[int]]) -> MiningOutput:
        """Per-transaction containment scan — the bitmap kernel's oracle."""
        tx = [frozenset(t) for t in transactions]
        n = len(tx)
        if n == 0:
            return MiningOutput(counts={}, num_transactions=0, candidates_generated=0, work_units=0.0)
        min_count = max(1, int(-(-self.min_support * n // 1)))  # ceil

        work = 0.0
        candidates_total = 0

        # Level 1: single scan.
        item_counts: dict[int, int] = defaultdict(int)
        for t in tx:
            work += len(t)
            for item in t:
                item_counts[item] += 1
        frequent: dict[Pattern, int] = {
            (item,): c for item, c in item_counts.items() if c >= min_count
        }
        candidates_total += len(item_counts)
        result = dict(frequent)

        k = 2
        current = sorted(frequent)
        while current and (self.max_len is None or k <= self.max_len):
            candidates = self._generate_candidates(current, k)
            candidates_total += len(candidates)
            if not candidates:
                break
            counts: dict[Pattern, int] = defaultdict(int)
            cand_sets = [(c, frozenset(c)) for c in candidates]
            for t in tx:
                work += len(cand_sets)
                if len(t) < k:
                    continue
                for cand, cset in cand_sets:
                    if cset <= t:
                        counts[cand] += 1
            current = sorted(c for c, v in counts.items() if v >= min_count)
            for c in current:
                result[c] = counts[c]
            k += 1

        return MiningOutput(
            counts=result,
            num_transactions=n,
            candidates_generated=candidates_total,
            work_units=work,
        )

    @staticmethod
    def _generate_candidates(frequent_prev: Sequence[Pattern], k: int) -> list[Pattern]:
        """Join step + Apriori prune (every (k-1)-subset must be frequent)."""
        prev_set = set(frequent_prev)
        candidates: list[Pattern] = []
        n = len(frequent_prev)
        for i in range(n):
            a = frequent_prev[i]
            for j in range(i + 1, n):
                b = frequent_prev[j]
                if a[: k - 2] != b[: k - 2]:
                    break  # sorted order: no further joins share the prefix
                cand = a + (b[k - 2],)
                if all(
                    cand[:m] + cand[m + 1 :] in prev_set for m in range(k)
                ):
                    candidates.append(cand)
        return candidates


def count_patterns(
    transactions: Sequence[Iterable[int]],
    patterns: Sequence[Pattern],
) -> tuple[dict[Pattern, int], float]:
    """Support counts of explicit ``patterns`` over ``transactions``.

    This is the global-pruning scan of Savasere's algorithm. Returns the
    counts and the containment-check work performed. Packs the
    partition once and counts every pattern via popcount over ANDed
    item rows; patterns naming items this partition never saw count 0,
    as in the reference scan (:func:`count_patterns_reference`).
    """
    pats = list(patterns)
    bitmap = pack_transactions(transactions)
    supports = pattern_supports(bitmap, pats)
    # A pattern listed m times is incremented m times per matching
    # transaction by the reference scan; mirror that exactly.
    multiplicity: dict[Pattern, int] = defaultdict(int)
    for p in pats:
        multiplicity[p] += 1
    counts = {p: supports[p] * m for p, m in multiplicity.items()}
    return counts, float(bitmap.num_transactions * len(pats))


def count_patterns_reference(
    transactions: Sequence[Iterable[int]], patterns: Sequence[Pattern]
) -> tuple[dict[Pattern, int], float]:
    """Per-transaction containment scan — the bitmap kernel's oracle."""
    pattern_sets = [(p, frozenset(p)) for p in patterns]
    counts: dict[Pattern, int] = {p: 0 for p, _ in pattern_sets}
    work = 0.0
    for t in transactions:
        ts = frozenset(t)
        work += len(pattern_sets)
        for p, ps in pattern_sets:
            if ps <= ts:
                counts[p] += 1
    return counts, work


class LocalMiningWorkload(Workload):
    """Phase 1 of Savasere's partition algorithm: mine one partition at
    the global relative support.

    The ``two_phase`` contract, stated once for every local miner:
    ``run`` outputs the partition's :class:`MiningOutput`; ``merge``
    unions the locally frequent patterns — a complete candidate set,
    since a globally frequent pattern is locally frequent in at least
    one partition; phase 2 (:class:`CandidateCountWorkload`) then counts
    that union over :meth:`~Workload.count_records` of every partition
    and prunes at ``min_support``.
    """

    two_phase = True

    def __init__(self, miner):
        self.miner = miner

    @property
    def min_support(self) -> float:
        return self.miner.min_support

    def run(self, records: Sequence[Iterable[int]]) -> WorkloadResult:
        out = self.miner.mine(records)
        return WorkloadResult(
            work_units=out.work_units,
            output=out,
            stats={
                "patterns": len(out.counts),
                "candidates": out.candidates_generated,
                "transactions": out.num_transactions,
            },
        )

    def merge(self, partials: Sequence[WorkloadResult]) -> set[Pattern]:
        union: set[Pattern] = set()
        for p in partials:
            union.update(p.output.patterns())
        return union


class AprioriWorkload(LocalMiningWorkload):
    """Per-partition Apriori mining."""

    name = "apriori-local"

    def __init__(self, min_support: float, max_len: int | None = None):
        super().__init__(AprioriMiner(min_support=min_support, max_len=max_len))


class CandidateCountWorkload(Workload):
    """Global pruning scan (phase 2 of Savasere): count a fixed candidate
    set against each partition; ``merge`` sums counts and applies the
    global support threshold."""

    name = "apriori-count"

    def __init__(
        self,
        candidates: Sequence[Pattern],
        min_support: float,
        total_transactions: int,
    ):
        if total_transactions <= 0:
            raise ValueError("total_transactions must be positive")
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        self.candidates = sorted(set(candidates))
        self.min_support = min_support
        self.total_transactions = total_transactions

    def run(self, records: Sequence[Iterable[int]]) -> WorkloadResult:
        counts, work = count_patterns(records, self.candidates)
        return WorkloadResult(
            work_units=work,
            output=counts,
            stats={"candidates": len(self.candidates), "transactions": len(records)},
        )

    def merge(self, partials: Sequence[WorkloadResult]) -> dict[Pattern, int]:
        min_count = max(1, int(-(-self.min_support * self.total_transactions // 1)))
        totals: dict[Pattern, int] = defaultdict(int)
        for p in partials:
            for pattern, c in p.output.items():
                totals[pattern] += c
        return {p: c for p, c in totals.items() if c >= min_count}

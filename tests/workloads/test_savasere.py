"""Tests for the two-phase partition-based mining algorithm
(Savasere et al.), as :func:`repro.core.framework.run_two_phase` runs
it — the one implementation, under ``ParetoPartitioner`` too."""

import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.core.framework import run_two_phase
from repro.data.text import CorpusConfig, generate_corpus
from repro.workloads.fpm.apriori import AprioriMiner, AprioriWorkload


@pytest.fixture(scope="module")
def engine():
    return SimulatedEngine(paper_cluster(4, seed=0), unit_rate=1e4)


@pytest.fixture(scope="module")
def transactions():
    # Small topic-model documents: set-shaped records whose background
    # tokens give Apriori itemsets of length 3 at 10 % support.
    return generate_corpus(
        CorpusConfig(
            num_docs=300, vocab_size=60, num_topics=4, doc_length_mean=10,
            doc_length_spread=4, tokens_per_topic=40, background_tokens=20, seed=1,
        )
    ).documents


def split(records, p):
    out = [[] for _ in range(p)]
    for i, r in enumerate(records):
        out[i % p].append(r)
    return out


def mine(engine, partitions, support, max_len=None):
    """Both phases; returns (combined job, phase breakdown)."""
    workload = AprioriWorkload(min_support=support, max_len=max_len)
    return run_two_phase(engine, workload, partitions)


class TestCorrectness:
    def test_matches_single_machine_mining(self, engine, transactions):
        """The distributed result must equal mining everything centrally
        (Savasere's algorithm is exact, not approximate)."""
        support = 0.1
        central = AprioriMiner(min_support=support).mine(transactions).counts
        job, _extra = mine(engine, split(transactions, 4), support)
        assert job.merged_output == central

    def test_candidates_superset_of_frequent(self, engine, transactions):
        parts = split(transactions, 4)
        job, extra = mine(engine, parts, 0.1)
        # Phase 1 on its own: its merged output is the candidate union.
        candidates = engine.run_job(AprioriWorkload(min_support=0.1), parts).merged_output
        frequent = job.merged_output
        assert set(frequent) <= candidates
        assert extra["candidates"] == len(candidates)
        assert extra["frequent"] == len(frequent)
        assert extra["false_positives"] == len(candidates) - len(frequent)
        assert extra["false_positives"] >= 0

    def test_exactness_across_partitionings(self, engine, transactions):
        support = 0.15
        central = AprioriMiner(min_support=support).mine(transactions).counts
        for p in (2, 3, 4):
            job, _extra = mine(engine, split(transactions, p), support)
            assert job.merged_output == central, f"mismatch at p={p}"

    def test_max_len_respected(self, engine, transactions):
        job, _extra = mine(engine, split(transactions, 4), 0.1, max_len=2)
        assert all(len(p) <= 2 for p in job.merged_output)


class TestCostModel:
    def test_makespan_sums_phases(self, engine, transactions):
        job, extra = mine(engine, split(transactions, 4), 0.1)
        assert extra["local_makespan_s"] > 0 and extra["count_makespan_s"] > 0
        assert job.makespan_s == pytest.approx(
            extra["local_makespan_s"] + extra["count_makespan_s"]
        )

    def test_energy_sums_phases(self, engine, transactions):
        parts = split(transactions, 4)
        job, _extra = mine(engine, parts, 0.1)
        # One task per partition per phase, phase 1 first.
        assert len(job.tasks) == 2 * len(parts)
        local, count = job.tasks[: len(parts)], job.tasks[len(parts) :]
        assert job.total_dirty_energy_j == pytest.approx(
            sum(t.dirty_energy_j for t in local) + sum(t.dirty_energy_j for t in count)
        )
        assert job.total_energy_j == pytest.approx(
            sum(t.energy_j for t in local) + sum(t.energy_j for t in count)
        )

    def test_skewed_partitions_inflate_candidates(self, engine, transactions):
        """Sorting transactions (by content) before chunking makes the
        partitions statistically skewed; the candidate union must grow
        versus round-robin partitions — the paper's core motivation."""
        support = 0.12
        p = 4
        balanced, balanced_extra = mine(engine, split(transactions, p), support)
        skewed_order = sorted(transactions)
        chunk = len(transactions) // p
        skewed_parts = [
            skewed_order[i * chunk : (i + 1) * chunk if i < p - 1 else None]
            for i in range(p)
        ]
        skewed, skewed_extra = mine(engine, skewed_parts, support)
        assert skewed_extra["candidates"] > balanced_extra["candidates"]
        # Exactness is preserved regardless of skew.
        assert skewed.merged_output == balanced.merged_output

    def test_empty_dataset_rejected(self, engine):
        with pytest.raises(ValueError):
            mine(engine, [[], []], 0.1)


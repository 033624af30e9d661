"""Unit and property tests for the end-to-end stratifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.text import CorpusConfig, generate_corpus
from repro.stratify.kmodes import KModesResult
from repro.stratify.stratifier import Stratification, Stratifier


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(num_docs=300, num_topics=4, seed=1))


@pytest.fixture(scope="module")
def stratification(corpus):
    return Stratifier(kind="text", num_strata=4, num_hashes=48, seed=0).stratify(
        corpus.documents
    )


class TestPipeline:
    def test_every_item_in_exactly_one_stratum(self, stratification, corpus):
        all_members = np.concatenate(stratification.strata)
        assert sorted(all_members.tolist()) == list(range(len(corpus.documents)))

    def test_labels_match_strata(self, stratification):
        for s, members in enumerate(stratification.strata):
            assert (stratification.labels[members] == s).all()

    def test_strata_ids_dense(self, stratification):
        assert stratification.num_strata == stratification.labels.max() + 1

    def test_recovers_planted_topics(self, corpus, stratification):
        # Items of the same planted topic should mostly co-locate: the
        # dominant topic of each stratum covers most of its members.
        agreement = 0
        for members in stratification.strata:
            topics = corpus.topic_of[members]
            agreement += np.bincount(topics).max()
        assert agreement / stratification.num_items >= 0.7

    def test_deterministic(self, corpus):
        s1 = Stratifier(kind="text", num_strata=4, seed=0).stratify(corpus.documents)
        s2 = Stratifier(kind="text", num_strata=4, seed=0).stratify(corpus.documents)
        assert np.array_equal(s1.labels, s2.labels)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Stratifier(kind="text").stratify([])

    def test_invalid_num_strata(self):
        with pytest.raises(ValueError):
            Stratifier(kind="text", num_strata=0)

    def test_sketch_shape(self, corpus):
        st_ = Stratifier(kind="text", num_strata=4, num_hashes=32, seed=0)
        assert st_.sketch(corpus.documents[:10]).shape == (10, 32)


class TestStratifiedSample:
    def test_exact_total(self, stratification):
        rng = np.random.default_rng(0)
        sample = stratification.stratified_sample(0.1, rng)
        assert sample.size == round(0.1 * stratification.num_items)

    def test_no_duplicates(self, stratification):
        rng = np.random.default_rng(1)
        sample = stratification.stratified_sample(0.3, rng)
        assert len(set(sample.tolist())) == sample.size

    def test_full_fraction_returns_everything(self, stratification):
        rng = np.random.default_rng(2)
        sample = stratification.stratified_sample(1.0, rng)
        assert sample.size == stratification.num_items

    def test_proportions_respected(self, stratification):
        rng = np.random.default_rng(3)
        sample = stratification.stratified_sample(0.5, rng)
        sizes = stratification.stratum_sizes()
        counts = np.bincount(
            stratification.labels[sample], minlength=stratification.num_strata
        )
        for s in range(stratification.num_strata):
            expected = 0.5 * sizes[s]
            assert abs(counts[s] - expected) <= max(2, 0.2 * sizes[s])

    def test_invalid_fraction(self, stratification):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            stratification.stratified_sample(0.0, rng)
        with pytest.raises(ValueError):
            stratification.stratified_sample(1.5, rng)

    @given(st.floats(min_value=0.02, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_sample_size_property(self, fraction):
        labels = np.array([0] * 40 + [1] * 60)
        strat = Stratification(
            labels=labels,
            strata=[np.arange(40), np.arange(40, 100)],
        )
        sample = strat.stratified_sample(fraction, np.random.default_rng(0))
        assert sample.size == max(1, round(fraction * 100))


class TestOrdering:
    def test_ordered_by_stratum_is_permutation(self, stratification):
        ordered = stratification.ordered_by_stratum()
        assert sorted(ordered.tolist()) == list(range(stratification.num_items))

    def test_ordered_by_stratum_is_grouped(self, stratification):
        ordered = stratification.ordered_by_stratum()
        seen = stratification.labels[ordered]
        # Stratum ids along the ordering never revisit an earlier id.
        changes = (np.diff(seen) != 0).sum()
        assert changes == stratification.num_strata - 1


class TestFromKModes:
    def test_empty_clusters_are_skipped_and_ids_stay_dense(self):
        # Clusters 0 and 2 of four have no members.
        result = KModesResult(
            labels=np.array([3, 1, 3, 1, 1]),
            centers=np.zeros((4, 2, 1), dtype=np.uint64),
            cost=0.0,
            iterations=1,
            converged=True,
        )
        strat = Stratification.from_kmodes(result)
        assert strat.labels.tolist() == [1, 0, 1, 0, 0]
        assert [s.tolist() for s in strat.strata] == [[1, 3, 4], [0, 2]]
        assert strat.kmodes is result

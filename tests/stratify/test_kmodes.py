"""Unit tests for compositeKModes clustering."""

import numpy as np
import pytest

from repro.stratify.kmodes import CompositeKModes


def planted_sketches(n_per_cluster=30, k=16, n_clusters=3, noise_slots=2, seed=0):
    """Sketch matrix with planted clusters: cluster c uses base value
    1000*c in every slot, with a few noisy slots per row."""
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for c in range(n_clusters):
        for _ in range(n_per_cluster):
            row = np.full(k, 1000 * (c + 1), dtype=np.uint64)
            noisy = rng.choice(k, size=noise_slots, replace=False)
            row[noisy] = rng.integers(1, 10**6, size=noise_slots)
            rows.append(row)
            labels.append(c)
    return np.stack(rows), np.array(labels)


class TestValidation:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CompositeKModes(num_clusters=0)
        with pytest.raises(ValueError):
            CompositeKModes(top_l=0)
        with pytest.raises(ValueError):
            CompositeKModes(max_iter=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CompositeKModes().fit(np.empty((0, 4), dtype=np.uint64))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            CompositeKModes().fit(np.zeros(5, dtype=np.uint64))


class TestClustering:
    def test_recovers_planted_clusters(self):
        sketches, truth = planted_sketches()
        result = CompositeKModes(num_clusters=3, top_l=2, seed=1).fit(sketches)
        # Every planted cluster should map to one dominant output label.
        for c in range(3):
            members = result.labels[truth == c]
            dominant = np.bincount(members).max()
            assert dominant / members.size >= 0.9

    def test_converges(self):
        sketches, _ = planted_sketches()
        result = CompositeKModes(num_clusters=3, seed=0).fit(sketches)
        assert result.converged
        assert result.iterations <= 50

    def test_labels_cover_all_rows(self):
        sketches, _ = planted_sketches()
        result = CompositeKModes(num_clusters=3, seed=0).fit(sketches)
        assert result.labels.shape == (sketches.shape[0],)
        assert result.labels.min() >= 0
        assert result.labels.max() < result.num_clusters

    def test_deterministic_in_seed(self):
        sketches, _ = planted_sketches()
        r1 = CompositeKModes(num_clusters=3, seed=42).fit(sketches)
        r2 = CompositeKModes(num_clusters=3, seed=42).fit(sketches)
        assert np.array_equal(r1.labels, r2.labels)

    def test_k_clamped_to_n(self):
        sketches = np.array([[1, 2], [3, 4]], dtype=np.uint64)
        result = CompositeKModes(num_clusters=10, seed=0).fit(sketches)
        assert result.num_clusters == 2

    def test_single_cluster(self):
        sketches, _ = planted_sketches(n_clusters=1)
        result = CompositeKModes(num_clusters=1, seed=0).fit(sketches)
        assert (result.labels == 0).all()

    def test_identical_rows_one_cluster_dominates(self):
        sketches = np.tile(np.array([5, 6, 7], dtype=np.uint64), (20, 1))
        result = CompositeKModes(num_clusters=4, seed=0).fit(sketches)
        # All rows identical => all land in one cluster with zero cost.
        assert len(set(result.labels.tolist())) == 1
        assert result.cost == 0.0


class TestCompositeLBehaviour:
    def test_larger_l_reduces_cost(self):
        # Rows whose slot values alternate between two per-cluster values:
        # with L=1 half the slots mismatch; with L=2 the centre holds both.
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(40):
            row = np.where(rng.random(12) < 0.5, 100, 200).astype(np.uint64)
            rows.append(row)
        sketches = np.stack(rows)
        cost_l1 = CompositeKModes(num_clusters=1, top_l=1, seed=0).fit(sketches).cost
        cost_l2 = CompositeKModes(num_clusters=1, top_l=2, seed=0).fit(sketches).cost
        assert cost_l2 < cost_l1
        assert cost_l2 == 0.0

    def test_zero_match_problem_mitigated(self):
        # Sparse high-cardinality sketches: standard KModes (L=1) leaves
        # many rows with zero matching attributes; L=3 matches more.
        sketches, _ = planted_sketches(noise_slots=6, seed=3)
        km1 = CompositeKModes(num_clusters=3, top_l=1, seed=0).fit(sketches)
        km3 = CompositeKModes(num_clusters=3, top_l=3, seed=0).fit(sketches)
        assert km3.cost <= km1.cost


class TestCostMonotonicity:
    def test_cost_nonincreasing_over_restarts_of_same_fit(self):
        # The returned cost is consistent with the labels/centres pair.
        sketches, _ = planted_sketches(seed=5)
        result = CompositeKModes(num_clusters=3, seed=9).fit(sketches)
        k = sketches.shape[1]
        manual = 0
        for i, label in enumerate(result.labels):
            hit = (
                sketches[i][:, None] == result.centers[label]
            ).any(axis=1)
            manual += k - int(hit.sum())
        assert manual == result.cost

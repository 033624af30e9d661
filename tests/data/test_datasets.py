"""Unit tests for the dataset registry (Table I analog)."""

import pytest

from repro.data.datasets import DATASET_NAMES, dataset_summary, load_dataset


class TestRegistry:
    def test_five_paper_datasets(self):
        assert set(DATASET_NAMES) == {"swissprot", "treebank", "uk", "arabic", "rcv1"}

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_loadable(self, name):
        ds = load_dataset(name, size_scale=0.2)
        assert len(ds) >= 50
        assert ds.kind in ("tree", "graph", "text")
        assert ds.ground_truth is not None
        assert len(ds.ground_truth) == len(ds)

    def test_kinds(self):
        assert load_dataset("swissprot", size_scale=0.2).kind == "tree"
        assert load_dataset("treebank", size_scale=0.2).kind == "tree"
        assert load_dataset("uk", size_scale=0.2).kind == "graph"
        assert load_dataset("arabic", size_scale=0.2).kind == "graph"
        assert load_dataset("rcv1", size_scale=0.2).kind == "text"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_dataset("enron")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("uk", size_scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_scale(self, scale):
        with pytest.raises(ValueError, match="size_scale must be positive and finite"):
            load_dataset("uk", size_scale=scale)

    def test_scaling_changes_size(self):
        small = load_dataset("rcv1", size_scale=0.1)
        large = load_dataset("rcv1", size_scale=0.5)
        assert len(large) > len(small)

    def test_arabic_larger_than_uk(self):
        # Mirrors the paper's relative dataset sizes.
        uk = load_dataset("uk", size_scale=0.3)
        arabic = load_dataset("arabic", size_scale=0.3)
        assert arabic.meta["num_edges"] > uk.meta["num_edges"]

    def test_deterministic_in_seed(self):
        a = load_dataset("rcv1", size_scale=0.1, seed=3)
        b = load_dataset("rcv1", size_scale=0.1, seed=3)
        assert a.items == b.items

    def test_seed_changes_data(self):
        a = load_dataset("rcv1", size_scale=0.1, seed=1)
        b = load_dataset("rcv1", size_scale=0.1, seed=2)
        assert a.items != b.items


class TestSummary:
    def test_summary_rows(self):
        ds = load_dataset("uk", size_scale=0.2)
        row = dataset_summary(ds)
        assert row["name"] == "uk"
        assert row["type"] == "graph"
        assert row["items"] == len(ds)
        assert "num_edges" in row

    def test_tree_summary_counts_nodes(self):
        ds = load_dataset("swissprot", size_scale=0.2)
        row = dataset_summary(ds)
        assert row["total_nodes"] > row["items"]

"""Tests for flat-text dataset I/O."""

import pytest

from repro.data.graphs import WebGraphConfig, generate_webgraph
from repro.data.io import (
    load_adjacency,
    load_dataset_file,
    load_transactions,
    load_trees,
    save_adjacency,
    save_transactions,
    save_trees,
)
from repro.data.text import CorpusConfig, generate_corpus
from repro.data.trees import TreeDatasetConfig, generate_tree_dataset, tree_items


class TestTransactions:
    def test_roundtrip(self, tmp_path):
        records = generate_corpus(CorpusConfig(num_docs=50, seed=1)).documents
        path = tmp_path / "tx.dat"
        save_transactions(records, path)
        assert load_transactions(path) == records

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tx.dat"
        path.write_text("# header\n1 2 3\n\n4 5\n")
        assert load_transactions(path) == [[1, 2, 3], [4, 5]]

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "tx.dat"
        path.write_text("1 two 3\n")
        with pytest.raises(ValueError):
            load_transactions(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "tx.dat"
        path.write_text("1 -2\n")
        with pytest.raises(ValueError):
            load_transactions(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "tx.dat"
        path.write_text("\n")
        with pytest.raises(ValueError):
            load_transactions(path)


class TestAdjacency:
    def test_roundtrip(self, tmp_path):
        graph = generate_webgraph(WebGraphConfig(num_vertices=100, seed=2))
        path = tmp_path / "g.adj"
        save_adjacency(graph.adjacency, path)
        assert load_adjacency(path) == graph.adjacency

    def test_edge_list_format(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n0 2\n2 0\n")
        assert load_adjacency(path) == [[1, 2], [2], [0]]

    def test_duplicate_source_rejected(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("0: 1\n0: 2\n1:\n2:\n")
        with pytest.raises(ValueError):
            load_adjacency(path)

    def test_out_of_range_target_rejected(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("0: 5\n")
        with pytest.raises(ValueError):
            load_adjacency(path)

    def test_missing_sources_become_empty(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("2: 0\n0: 2\n")
        assert load_adjacency(path) == [[2], [], [0]]

    def test_bad_edge_line_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError):
            load_adjacency(path)


class TestTrees:
    def test_roundtrip(self, tmp_path):
        items = tree_items(
            generate_tree_dataset(TreeDatasetConfig(num_trees=20, seed=3))
        )
        path = tmp_path / "t.trees"
        save_trees(items, path)
        assert load_trees(path) == items

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "t.trees"
        path.write_text("-1 0 0 1 2 3\n")
        with pytest.raises(ValueError):
            load_trees(path)

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.trees"
        path.write_text("-1 0 | 5\n")
        with pytest.raises(ValueError):
            load_trees(path)

    def test_malformed_tree_rejected(self, tmp_path):
        path = tmp_path / "t.trees"
        path.write_text("-1 -1 | 5 6\n")  # two roots
        with pytest.raises(ValueError):
            load_trees(path)


class TestDatasetFile:
    def test_text_dataset_usable_by_framework(self, tmp_path):
        records = generate_corpus(CorpusConfig(num_docs=120, seed=4)).documents
        path = tmp_path / "corpus.dat"
        save_transactions(records, path)
        ds = load_dataset_file("text", path)
        assert ds.kind == "text"
        assert ds.name == "corpus"
        assert len(ds) == 120

        from repro.stratify.stratifier import Stratifier

        strat = Stratifier(kind=ds.kind, num_strata=4, seed=0).stratify(ds.items)
        assert strat.num_items == 120

    def test_graph_and_tree_kinds(self, tmp_path):
        graph = generate_webgraph(WebGraphConfig(num_vertices=60, seed=5))
        gpath = tmp_path / "g.adj"
        save_adjacency(graph.adjacency, gpath)
        assert load_dataset_file("graph", gpath).kind == "graph"

        items = tree_items(generate_tree_dataset(TreeDatasetConfig(num_trees=10, seed=6)))
        tpath = tmp_path / "t.trees"
        save_trees(items, tpath)
        assert load_dataset_file("tree", tpath).kind == "tree"

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            load_dataset_file("audio", tmp_path / "x")

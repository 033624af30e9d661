"""Dataset registry: the paper's Table I, at laptop scale.

Each entry maps one of the paper's five datasets to a configured
synthetic generator whose statistical shape matches the original's role
in the evaluation. ``size_scale`` lets benches trade fidelity for speed
uniformly.

=========== ===== ======================================= =================
Name        Type  Paper original                          Synthetic analog
=========== ===== ======================================= =================
swissprot   tree  59,545 trees / 2.98M nodes              clustered labelled trees
treebank    tree  56,479 trees / 2.44M nodes (deeper)     deeper clustered trees
uk          graph 11.1M vertices / 287M edges             host-local copying webgraph
arabic      graph 16.0M vertices / 633M edges             larger, denser webgraph
rcv1        text  804,414 docs / 47,236 vocabulary        Zipfian topic corpus
=========== ===== ======================================= =================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.graphs import WebGraphConfig, generate_webgraph
from repro.data.text import CorpusConfig, generate_corpus
from repro.data.trees import TreeDatasetConfig, generate_tree_dataset, tree_items

#: Registry name → pivot-extractor domain of the loaded dataset.
DATASET_KINDS = {
    "swissprot": "tree",
    "treebank": "tree",
    "uk": "graph",
    "arabic": "graph",
    "rcv1": "text",
}
DATASET_NAMES = tuple(DATASET_KINDS)


@dataclass
class Dataset:
    """A loaded dataset ready for the stratifier and workloads.

    Attributes
    ----------
    name / kind:
        Registry name and pivot-extractor domain
        (``"tree" | "graph" | "text"``).
    items:
        Records in pivot-extractor form (trees: ``(parent, labels)``
        pairs; graphs: adjacency lists; text: token-id lists).
    ground_truth:
        Planted stratum label per item, for stratification-quality tests.
    meta:
        Generator diagnostics (node/edge/vocab counts).
    """

    name: str
    kind: str
    items: list[Any]
    ground_truth: np.ndarray | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.items)


def load_dataset(name: str, *, size_scale: float = 1.0, seed: int = 0) -> Dataset:
    """Instantiate a registry dataset.

    ``size_scale`` multiplies the default item count (min 50 items so
    stratification stays meaningful).
    """
    if name not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    if not 0 < size_scale < math.inf:  # False for NaN too
        raise ValueError("size_scale must be positive and finite")

    def scaled(n: int, minimum: int = 50) -> int:
        return max(minimum, int(round(n * size_scale)))

    kind = DATASET_KINDS[name]
    if kind == "tree":
        if name == "swissprot":
            config = TreeDatasetConfig(
                num_trees=scaled(500),
                nodes_mean=26,
                nodes_spread=10,
                num_clusters=10,
                num_labels=80,
                labels_per_cluster=14,
                skew=0.6,
                seed=seed,
            )
        else:  # treebank
            config = TreeDatasetConfig(
                num_trees=scaled(450),
                nodes_mean=20,
                nodes_spread=6,
                num_clusters=12,
                num_labels=100,
                labels_per_cluster=10,
                mutation_rate=0.12,
                skew=0.9,
                seed=seed + 1,
            )
        trees = generate_tree_dataset(config)
        items = tree_items(trees)
        ground_truth = np.array([t.cluster for t in trees])
        meta = {
            "num_trees": len(trees),
            "total_nodes": sum(t.num_nodes for t in trees),
        }
    elif kind == "graph":
        if name == "uk":
            config = WebGraphConfig(
                num_vertices=scaled(2500),
                num_hosts=12,
                mean_degree=14.0,
                intra_host_prob=0.85,
                copy_prob=0.55,
                host_skew=0.7,
                seed=seed + 2,
            )
        else:  # arabic
            config = WebGraphConfig(
                num_vertices=scaled(3500),
                num_hosts=16,
                mean_degree=18.0,
                intra_host_prob=0.8,
                copy_prob=0.5,
                host_skew=0.9,
                seed=seed + 3,
            )
        graph = generate_webgraph(config)
        items = graph.records()
        ground_truth = graph.host_of
        meta = {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "num_hosts": config.num_hosts,
        }
    else:  # text: rcv1
        config = CorpusConfig(
            num_docs=scaled(1200),
            vocab_size=1000,
            num_topics=12,
            topic_skew=0.8,
            seed=seed + 4,
        )
        corpus = generate_corpus(config)
        items = corpus.records()
        ground_truth = corpus.topic_of
        meta = {"num_docs": corpus.num_docs, "vocab_size": corpus.vocab_size}
    return Dataset(
        name=name, kind=kind, items=items, ground_truth=ground_truth, meta=meta
    )


def dataset_summary(dataset: Dataset) -> dict[str, Any]:
    """Table I row for a loaded dataset."""
    row: dict[str, Any] = {"name": dataset.name, "type": dataset.kind, "items": len(dataset)}
    row.update(dataset.meta)
    return row

"""Synthetic datasets with the statistical shape of the paper's five inputs.

The paper evaluates on SwissProt and Treebank (XML trees), the UK and
Arabic webgraphs, and the RCV1 text corpus — none redistributable here.
These generators produce seeded laptop-scale stand-ins with *planted
strata* and controllable skew, so every mechanism the paper's framework
exploits (pattern skew across partitions, adjacency locality for
compression, topic structure for support thresholds) is exercised:

- :mod:`repro.data.trees` — labelled trees drawn from perturbed cluster
  templates (shared subtrees ⇒ shared pivots);
- :mod:`repro.data.graphs` — copying-model webgraphs with host locality
  (similar adjacency lists ⇒ small gaps ⇒ compressible);
- :mod:`repro.data.text` — Zipfian topic-model documents (the
  set-shaped records frequent-pattern mining reads);
- :mod:`repro.data.datasets` — the registry mapping paper dataset names
  to configured generators (Table I analog).
"""

from repro.data.trees import LabeledTree, TreeDatasetConfig, generate_tree_dataset
from repro.data.graphs import WebGraphConfig, generate_webgraph
from repro.data.text import CorpusConfig, generate_corpus
from repro.data.datasets import Dataset, load_dataset, DATASET_NAMES, dataset_summary
from repro.data.io import (
    load_adjacency,
    load_dataset_file,
    load_transactions,
    load_trees,
    save_adjacency,
    save_transactions,
    save_trees,
)

__all__ = [
    "load_adjacency",
    "load_dataset_file",
    "load_transactions",
    "load_trees",
    "save_adjacency",
    "save_transactions",
    "save_trees",
    "LabeledTree",
    "TreeDatasetConfig",
    "generate_tree_dataset",
    "WebGraphConfig",
    "generate_webgraph",
    "CorpusConfig",
    "generate_corpus",
    "Dataset",
    "load_dataset",
    "DATASET_NAMES",
    "dataset_summary",
]

"""Synthetic labelled-tree datasets (SwissProt / Treebank analogs).

Trees are generated from a small pool of *cluster templates*. Each
template is a random tree (uniform via a random Prüfer sequence) with
labels drawn from a cluster-specific distribution; each emitted tree is
a perturbed copy — a fraction of labels mutated and a random subtree
grafted. Trees from the same cluster therefore share many
LCA-label pivots, giving the stratifier real strata to find, while the
cluster mixing proportions control dataset skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.draws import PCG64Draws
from repro.stratify.prufer import tree_from_prufer


@dataclass(frozen=True)
class LabeledTree:
    """A rooted labelled tree: parent array + per-node integer labels."""

    parent: tuple[int, ...]
    labels: tuple[int, ...]
    cluster: int = -1

    def __post_init__(self) -> None:
        if len(self.parent) != len(self.labels):
            raise ValueError("parent and labels must have equal length")

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    def as_item(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The ``(parent, labels)`` pair the tree pivot extractor takes."""
        return (self.parent, self.labels)


@dataclass(frozen=True)
class TreeDatasetConfig:
    """Generator knobs.

    Parameters
    ----------
    num_trees:
        Dataset size.
    nodes_mean / nodes_spread:
        Tree sizes are uniform in ``[mean - spread, mean + spread]``.
    num_clusters:
        Number of planted template clusters.
    num_labels:
        Global label alphabet size; each cluster prefers a subset.
    mutation_rate:
        Fraction of a template's labels redrawn per emitted tree.
    graft_fraction:
        Relative size of the random subtree grafted onto each copy.
    skew:
        Zipf-like exponent over cluster mixing proportions; 0 = uniform
        clusters, larger = a few dominant clusters (payload skew).
    """

    num_trees: int = 400
    nodes_mean: int = 24
    nodes_spread: int = 8
    num_clusters: int = 8
    num_labels: int = 64
    labels_per_cluster: int = 12
    mutation_rate: float = 0.08
    graft_fraction: float = 0.2
    skew: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_trees <= 0 or self.num_clusters <= 0:
            raise ValueError("num_trees and num_clusters must be positive")
        if self.nodes_mean - self.nodes_spread < 3:
            raise ValueError("trees must have at least 3 nodes")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.labels_per_cluster > self.num_labels:
            raise ValueError("labels_per_cluster cannot exceed num_labels")


def _random_tree(n: int, rng: np.random.Generator) -> list[int]:
    """Uniform random labelled tree on n nodes via a random Prüfer code."""
    if n < 3:
        return [-1] if n == 1 else [1, -1]
    seq = rng.integers(0, n, size=n - 2).tolist()
    return tree_from_prufer(seq, n)


def _cluster_mix(num_clusters: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, num_clusters + 1, dtype=np.float64), skew)
    weights /= weights.sum()
    return weights


def generate_tree_dataset(config: TreeDatasetConfig) -> list[LabeledTree]:
    """Generate the dataset described by ``config`` (deterministic in seed)."""
    rng = np.random.default_rng(config.seed)
    # Template per cluster: structure + preferred label subset.
    templates: list[tuple[list[int], list[int], list[int]]] = []
    for c in range(config.num_clusters):
        n = int(rng.integers(config.nodes_mean - config.nodes_spread,
                             config.nodes_mean + config.nodes_spread + 1))
        parent = _random_tree(n, rng)
        alphabet = rng.choice(config.num_labels, size=config.labels_per_cluster, replace=False)
        labels = rng.choice(alphabet, size=n)
        templates.append((parent, labels.tolist(), alphabet.tolist()))

    mix = _cluster_mix(config.num_clusters, config.skew, rng)
    assignments = rng.choice(config.num_clusters, size=config.num_trees, p=mix)

    # The loop's scalar draws come from a replay of the rest of rng's
    # stream (rng is not drawn from again).
    draws = PCG64Draws(rng)
    random, integers, choice = draws.random, draws.integers, draws.choice
    trees: list[LabeledTree] = []
    for cluster in assignments.tolist():
        parent_t, labels_t, alphabet = templates[cluster]
        n = len(parent_t)
        labels = list(labels_t)
        # Mutate a fraction of the labels within the cluster alphabet.
        n_mut = int(round(config.mutation_rate * n))
        if n_mut:
            idx = choice(n, n_mut, replace=False)
            for i, label in zip(idx, choice(alphabet, n_mut)):
                labels[i] = label
        parent = list(parent_t)
        # Graft a random chain/subtree under a random node.
        n_graft = int(round(config.graft_fraction * n))
        if n_graft:
            attach = integers(0, n)
            labels += choice(alphabet, n_graft)
            prev = attach
            for j in range(n_graft):
                new_id = n + j
                # Half the grafted nodes chain, half attach to random spots.
                if j and random() < 0.5:
                    prev = integers(0, new_id)
                parent.append(prev)
                prev = new_id
        trees.append(LabeledTree(parent=tuple(parent), labels=tuple(labels), cluster=cluster))
    return trees


def tree_items(trees: Sequence[LabeledTree]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Items in the form the ``"tree"`` pivot extractor consumes."""
    return [t.as_item() for t in trees]

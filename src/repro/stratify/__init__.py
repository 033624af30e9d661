"""Data stratification: pivots → MinHash sketches → compositeKModes strata.

Implements Section III-C of the paper. The stratifier converts
heterogeneous inputs (trees, graphs, text) into a *universal* set
representation via domain-specific pivot extraction, projects those sets
to small MinHash sketches using min-wise independent linear
permutations, and clusters the sketches with the compositeKModes
algorithm of Wang et al. (ICDE 2013) to form strata of statistically
similar items.
"""

from repro.stratify.prufer import prufer_sequence, tree_from_prufer
from repro.stratify.pivots import (
    tree_pivots,
    graph_pivots,
    text_pivots,
    PivotExtractor,
)
from repro.stratify.minhash import (
    MinHasher,
    jaccard,
    sketch_jaccard,
)
from repro.stratify.kmodes import CompositeKModes, KModesResult
from repro.stratify.stratifier import Stratifier, Stratification
from repro.stratify.metrics import (
    adjusted_rand_index,
    normalized_mutual_information,
    partition_label_entropy,
)

__all__ = [
    "prufer_sequence",
    "tree_from_prufer",
    "tree_pivots",
    "graph_pivots",
    "text_pivots",
    "PivotExtractor",
    "MinHasher",
    "jaccard",
    "sketch_jaccard",
    "CompositeKModes",
    "KModesResult",
    "Stratifier",
    "Stratification",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "partition_label_entropy",
]

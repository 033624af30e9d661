"""Vectorised kernel layer for the stratifier hot paths.

The stratification front door (pivot sketching + compositeKModes) is
paid by every experiment before a single partition runs, so its cost
must stay negligible next to the workloads being partitioned (the
bi-objective gains evaporate otherwise — cf. Khaleghzadeh et al.,
arXiv:1907.04080). This package holds the batched numpy kernels that
the stratifier modules call into:

- :mod:`repro.perf.minhash_kernels` — ragged-batch MinHash sketching
  (one broadcasted multiply-add over all sets at once, per-set minima
  via ``np.minimum.reduceat``) and the ndarray element fast path.
- :mod:`repro.perf.tree_kernels` — every tree's Prüfer/LCA pivot
  triples in array passes: Prüfer sequences in lockstep, depths by
  pointer jumping, LCAs by binary lifting.
- :mod:`repro.perf.kmodes_kernels` — compositeKModes in code space:
  match counts from a per-id lane-word gather with memory-aware row
  chunking, and a two-sort top-L centre update over static cell keys,
  both restricted to the clusters whose membership moved.
- :mod:`repro.perf.fpm_kernels` / :mod:`repro.perf.lz77_kernels` —
  packed-bitmap support counting and the precomputed-link LZ77 coder.
- :mod:`repro.perf.webgraph_kernels` — the whole-partition WebGraph
  coder: every list's reference candidates scored in array passes, one
  set per distance, and the winners emitted in one scatter.
- :mod:`repro.perf.fpgrowth_kernels` — FP-growth as one array forest
  per pattern length: every conditional tree's nodes, bases and
  frequent items from row bitmasks, with the pointer trees' exact node
  visits.

Each family has this one kernel and nothing selects it at run time.
Every kernel is bit-identical to the reference implementation it
replaces; the reference paths are kept beside the callers as named
oracles (``tree_triples_reference``, ``sketch_all_reference``,
``fit_reference``, ``mine_reference``, ``compress_reference``,
``count_patterns_reference``) and the equivalence is asserted by
``tests/perf/`` and ``benchmarks/bench_kernels.py``. Kernels are pure
functions of their arguments (no imports from the stratifier modules)
so they stay free of import cycles and are trivially testable. The
partition kernels (WebGraph, LZ77 text framing, FP-growth, the packed
FPM bitmap) take a staged :class:`~repro.kvstore.codec.EncodedDataset`
slice or a record list alike: both reach them through
:func:`~repro.kvstore.codec.columns_of`, whose record lists go through
:func:`~repro.kvstore.serializers.flatten_items`, the one flattener.
The tree-pivot kernel takes the codec's tree frames as columns
(:func:`~repro.kvstore.serializers.tree_columns`).
"""

from repro.perf.kmodes_kernels import (
    factorize_columns,
    match_counts,
    match_counts_coded,
    top_l_centers,
)
from repro.perf.minhash_kernels import (
    DEFAULT_CHUNK_BYTES,
    as_uint64_elements,
    flatten_sets,
    hash_elements,
    sketch_batch,
)

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "as_uint64_elements",
    "factorize_columns",
    "flatten_sets",
    "hash_elements",
    "match_counts",
    "match_counts_coded",
    "sketch_batch",
    "top_l_centers",
]

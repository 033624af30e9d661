"""Compiled compositeKModes assignment (match counting).

The numpy tier's value-space matcher builds a chunked ``(rows, K·L)``
boolean equality temporary per block; the compiled loop needs none —
it walks ``(row, cluster, attribute)`` and breaks out of the inner
top-``L`` scan on the first hit, which is both the common case (L is 3)
and exactly the reference semantics (``any`` over slots). Centre
updates stay on the numpy ``top_l_centers`` kernel (which also keeps
the centres' codes the numpy tier matches on; this tier ignores them):
they run once per iteration, not once per row, so compiling them buys
nothing.
"""

from __future__ import annotations

import numpy as np

from repro.perf.native.runtime import njit


@njit(cache=True)
def _match_counts(sketches, centers):
    n, k = sketches.shape
    num_clusters = centers.shape[0]
    top_l = centers.shape[2]
    out = np.zeros((n, num_clusters), dtype=np.int64)
    for i in range(n):
        for c in range(num_clusters):
            hits = 0
            for attr in range(k):
                v = sketches[i, attr]
                for slot in range(top_l):
                    if centers[c, attr, slot] == v:
                        hits += 1
                        break
            out[i, c] = hits
    return out


def match_counts_native(sketches: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Native counterpart of :func:`repro.perf.kmodes_kernels.match_counts`.

    ``sketches`` is ``(n, k)`` uint64, ``centers`` ``(K, k, L)`` uint64;
    returns the ``(n, K)`` int64 matched-attribute counts, bit-identical
    to the reference per-cluster matcher.
    """
    return _match_counts(
        np.ascontiguousarray(sketches, dtype=np.uint64),
        np.ascontiguousarray(centers, dtype=np.uint64),
    )

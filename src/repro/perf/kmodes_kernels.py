"""Batched compositeKModes kernels.

Two hot loops dominate the reference :class:`CompositeKModes`:

- ``_match_counts`` builds a per-cluster ``(n, k, L)`` boolean
  temporary and reduces it, looping over clusters in Python;
- ``_update_centers`` runs ``collections.Counter`` over a Python list
  for every (cluster, attribute) pair — ``K·k`` interpreter-speed
  passes per iteration.

The kernels here replace both with numpy-level batches while producing
*bit-identical* results (asserted in ``tests/perf/``):

- :func:`match_counts` compares a row block against all ``K·L`` centre
  slots in one broadcasted equality, chunking rows so the largest
  temporary stays under ``chunk_bytes`` — no per-cluster ``(n, k, L)``
  allocations.
- :func:`top_l_centers` factorises the sketch matrix per attribute once
  (``np.unique`` codes), then recovers every cluster's per-attribute
  value frequencies *and* first-occurrence positions from one
  ``np.bincount`` + ``np.minimum.at`` over integer keys (stable argsort
  when the key space is too large), ranking ties exactly like
  ``Counter.most_common`` (count descending, first appearance in
  member-row order ascending).
"""

from __future__ import annotations

import numpy as np

from repro.perf.minhash_kernels import DEFAULT_CHUNK_BYTES


def match_counts(
    sketches: np.ndarray,
    centers: np.ndarray,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """``(n, K)`` matched-attribute counts, batched over all clusters.

    A row matches an attribute if its value appears anywhere in the
    centre's top-``L`` list. The ``(rows, K·L, k)`` equality block is
    the only temporary; ``rows`` is sized so it stays below
    ``chunk_bytes``.
    """
    n, k = sketches.shape
    K, _, L = centers.shape
    # (K, k, L) -> (K·L, k), cluster-major then slot: row c*L + l holds
    # slot l of cluster c, so the reshape back to (rows, K, L, k) below
    # groups slots of one cluster together.
    flat_centers = np.ascontiguousarray(centers.transpose(0, 2, 1)).reshape(K * L, k)
    rows = max(1, chunk_bytes // max(1, K * L * k))
    counts = np.empty((n, K), dtype=np.int64)
    for start in range(0, n, rows):
        block = sketches[start : start + rows]
        eq = block[:, None, :] == flat_centers[None, :, :]
        hit = eq.reshape(block.shape[0], K, L, k).any(axis=2)
        counts[start : start + rows] = hit.sum(axis=2, dtype=np.int64)
    return counts


def factorize_columns(sketches: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-attribute dense codes for a categorical matrix.

    Returns ``(codes, col_offsets, all_values)`` where
    ``codes[i, attr] + col_offsets[attr]`` is a globally unique id for
    the value ``sketches[i, attr]`` and ``all_values`` maps that id back
    to the value. Computed once per :meth:`fit`; the codes are what lets
    :func:`top_l_centers` sort integer keys instead of raw ``uint64``
    values.
    """
    n, k = sketches.shape
    codes = np.empty((n, k), dtype=np.int64)
    values = []
    col_offsets = np.zeros(k + 1, dtype=np.int64)
    for attr in range(k):
        vals, inv = np.unique(sketches[:, attr], return_inverse=True)
        codes[:, attr] = inv
        values.append(vals)
        col_offsets[attr + 1] = col_offsets[attr] + vals.size
    all_values = np.concatenate(values) if values else np.empty(0, dtype=np.uint64)
    return codes, col_offsets, all_values


def top_l_centers(
    codes: np.ndarray,
    col_offsets: np.ndarray,
    all_values: np.ndarray,
    labels: np.ndarray,
    old_centers: np.ndarray,
    *,
    top_l: int,
    fill: np.uint64,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """Recompute every cluster's top-``L`` centre lists in one pass.

    Each cell becomes the integer key
    ``label·C + col_offsets[attr] + code`` (``C`` = total distinct
    values), so a (cluster, attribute, value) triple is one key. Value
    frequencies are then one ``np.bincount`` over the keys, and
    first-occurrence positions one ``np.minimum.at`` scatter of the row
    indices (exact and order-independent — ``min`` is commutative).
    When the key space would outgrow ``chunk_bytes`` the same
    statistics come from a stable argsort of the keys instead (runs =
    triples; a stable sort leaves ties in ascending row order, so the
    first element of each run *is* the first occurrence).

    Either way, surviving triples are ranked inside their (cluster,
    attribute) group by count descending then first occurrence
    ascending — ``Counter.most_common``'s exact order, since
    ``heapq.nlargest`` is stable over ``Counter``'s first-come
    insertion order — and ranks below ``top_l`` are written out.
    Clusters with no members keep their stale centre, matching the
    reference re-capture behaviour.
    """
    n, k = codes.shape
    K, _, L = old_centers.shape
    total_codes = int(col_offsets[-1])
    num_keys = K * total_codes

    new_centers = np.full_like(old_centers, fill)
    keys = (
        labels[:, None] * np.int64(total_codes) + (codes + col_offsets[:-1][None, :])
    ).ravel()

    if num_keys * 16 <= chunk_bytes:
        # Dense path: one bincount + one minimum.at over the key space.
        counts_per_key = np.bincount(keys, minlength=num_keys)
        first_row = np.full(num_keys, n, dtype=np.int64)
        np.minimum.at(first_row, keys, np.repeat(np.arange(n, dtype=np.int64), k))
        run_keys = np.flatnonzero(counts_per_key)
        run_counts = counts_per_key[run_keys]
        first_pos = first_row[run_keys]
    else:
        # Sparse fallback: group keys by stable sort (row-major flat
        # indices, so ties stay in ascending row order).
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        run_starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        run_counts = np.diff(np.r_[run_starts, sorted_keys.size])
        run_keys = sorted_keys[run_starts]
        first_pos = order[run_starts] // np.int64(k)

    value_ids = run_keys % total_codes
    run_labels = run_keys // total_codes
    run_attrs = np.searchsorted(col_offsets, value_ids, side="right") - 1

    # Rank runs inside each (cluster, attribute) group: count desc,
    # then first occurrence asc.
    group = run_labels * np.int64(k) + run_attrs
    ranked = np.lexsort((first_pos, -run_counts, group))
    group_sorted = group[ranked]
    group_starts = np.flatnonzero(np.r_[True, group_sorted[1:] != group_sorted[:-1]])
    rank_in_group = np.arange(group_sorted.size) - np.repeat(
        group_starts, np.diff(np.r_[group_starts, group_sorted.size])
    )
    keep = rank_in_group < top_l
    sel = ranked[keep]
    new_centers[run_labels[sel], run_attrs[sel], rank_in_group[keep]] = all_values[value_ids[sel]]

    empty = np.bincount(labels, minlength=K) == 0
    if empty.any():
        new_centers[empty] = old_centers[empty]
    return new_centers

"""compositeKModes clustering over MinHash sketches.

Standard KModes keeps a single modal value per attribute in each cluster
centre; with huge universes and short sketches almost every point then
has *zero* matching attributes with every centre and cannot be assigned
meaningfully. The compositeKModes variant of Wang et al. keeps the ``L``
highest-frequency values per attribute instead (``L > 1``), so a point
matches an attribute if its value appears anywhere in the centre's
top-``L`` list. Convergence follows the usual KModes argument: both the
assignment and the centre-update step never increase the total mismatch
cost, so the cost is non-increasing and the algorithm terminates.

The assign and centre-update steps run on the batched kernels in
:mod:`repro.perf.kmodes_kernels`: ``fit`` factorises the sketch matrix
into dense codes once and then matches (a membership-table gather) and
updates (two integer sorts) in that code space, centres carrying their
codes beside their values. The original Python-loop implementations
are kept as :meth:`CompositeKModes.fit_reference`, the oracle the
kernels are property-tested against — both paths are bit-identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.perf.kmodes_kernels import (
    FitBuffers,
    code_sketches,
    distinct_rows,
    match_counts_coded,
    top_l_centers,
)


@dataclass
class KModesResult:
    """Outcome of a compositeKModes run.

    Attributes
    ----------
    labels:
        Cluster id per input row, shape ``(n,)``.
    centers:
        Top-``L`` value lists, shape ``(K, k, L)``; unused slots hold the
        per-cluster fill sentinel and never match data.
    cost:
        Final total mismatch count (sum over rows of unmatched attributes).
    iterations:
        Number of assign/update rounds performed.
    converged:
        Whether assignments stabilised before ``max_iter``.
    """

    labels: np.ndarray
    centers: np.ndarray
    cost: float
    iterations: int
    converged: bool

    @property
    def num_clusters(self) -> int:
        return self.centers.shape[0]


#: Sentinel for unused top-L slots; chosen so it cannot equal a sketch
#: value (sketch values are < 2**64 - 1, and we offset per slot).
_FILL = np.uint64(0xFFFFFFFFFFFFFFFE)


@dataclass
class CompositeKModes:
    """compositeKModes over categorical (sketch) matrices.

    Parameters
    ----------
    num_clusters:
        ``K``, the number of strata to produce.
    top_l:
        ``L``, how many high-frequency values each centre keeps per
        attribute.
    max_iter:
        Cap on assign/update rounds.
    seed:
        RNG seed for centre initialisation.
    """

    num_clusters: int = 8
    top_l: int = 3
    max_iter: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        if self.top_l <= 0:
            raise ValueError("top_l must be positive")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")

    # -- internals ---------------------------------------------------------

    def _match_counts_reference(
        self, sketches: np.ndarray, centers: np.ndarray
    ) -> np.ndarray:
        """Per-cluster reference matcher — the batched kernel's oracle."""
        n, k = sketches.shape
        K = centers.shape[0]
        counts = np.empty((n, K), dtype=np.int64)
        for c in range(K):
            # (n, k, L) equality, any over L, sum over k.
            hit = (sketches[:, :, None] == centers[c][None, :, :]).any(axis=2)
            counts[:, c] = hit.sum(axis=1)
        return counts

    def _update_centers_reference(
        self, sketches: np.ndarray, labels: np.ndarray, centers: np.ndarray
    ) -> np.ndarray:
        """Counter-loop reference centre update — the sort kernel's oracle."""
        K = centers.shape[0]
        k = sketches.shape[1]
        new_centers = np.full_like(centers, _FILL)
        for c in range(K):
            members = sketches[labels == c]
            if members.shape[0] == 0:
                new_centers[c] = centers[c]  # keep stale centre; may re-capture
                continue
            for attr in range(k):
                top = Counter(members[:, attr].tolist()).most_common(self.top_l)
                for slot, (value, _freq) in enumerate(top):
                    new_centers[c, attr, slot] = value
        return new_centers

    def _initial_centers(
        self, sketches: np.ndarray, distinct: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw the starting centres: the chosen row per centre, and the
        ``(K, k, L)`` centres with those rows in slot 0. ``distinct`` is
        the first row of each distinct sketch row in lexicographic order
        (``np.unique(sketches, axis=0, return_index=True)[1]``); the draw
        indexes it, so its order is part of the result."""
        n, k = sketches.shape
        K = min(self.num_clusters, n)
        rng = np.random.default_rng(self.seed)
        # Initialise each centre from a distinct random row; prefer rows
        # with distinct sketches when available so initial centres differ.
        pool = distinct if distinct.size >= K else np.arange(n)
        chosen = rng.choice(pool, size=K, replace=pool.size < K)
        centers = np.full((K, k, self.top_l), _FILL, dtype=np.uint64)
        centers[:, :, 0] = sketches[chosen]
        return chosen, centers

    def _iterate(
        self,
        shape: tuple[int, int],
        state: tuple[np.ndarray, ...],
        match: Callable[..., np.ndarray],
        update: Callable[..., tuple[np.ndarray, ...]],
    ) -> KModesResult:
        """Assign/update rounds until the labels stop moving.

        ``state`` is the centres in whatever space ``match(clusters,
        *state)`` (→ ``(n, K)`` match counts, of which only the columns
        of ``clusters`` can have changed) and ``update(labels, clusters,
        *state)`` (→ the next state, in which only the centres of
        ``clusters`` can have changed) work in; its first element is
        always the ``(K, k, L)`` value centres. ``clusters`` is the
        clusters a row left or joined in the last round — all of them
        before the first match.
        """
        n, k = shape
        K = state[0].shape[0]
        labels = np.full(n, -1, dtype=np.int64)
        clusters = np.arange(K)
        converged = False
        iterations = 0
        for iterations in range(1, self.max_iter + 1):
            counts = match(clusters, *state)
            new_labels = np.argmax(counts, axis=1).astype(np.int64)
            moved = new_labels != labels
            if not moved.any():
                converged = True
                break
            touched = np.zeros(K + 1, dtype=bool)  # slot K: the unassigned -1
            touched[new_labels[moved]] = True
            touched[labels[moved]] = True
            clusters = np.flatnonzero(touched[:K])
            labels = new_labels
            state = update(labels, clusters, *state)

        # On convergence the last pass already matched the final centres
        # (and reproduced the labels); out of rounds, its last act was
        # an update, so match once more.
        if not converged:
            counts = match(clusters, *state)
        matched = counts[np.arange(n), labels].astype(np.int64)
        return KModesResult(
            labels=labels,
            centers=state[0],
            cost=float(np.sum(k - matched)),
            iterations=iterations,
            converged=converged,
        )

    # -- public API ----------------------------------------------------------

    def fit(self, sketches: np.ndarray) -> KModesResult:
        """Cluster sketch rows; returns labels, centres and diagnostics.

        The sketch matrix is factorised once (it never changes across
        iterations), then matched and its centres updated in that code
        space. From the second round on only the clusters a row left or
        joined are re-ranked and re-matched; every other cluster's
        centre, and so its column of match counts, is unchanged. The
        fit allocates every per-round buffer once — the match counts,
        the membership mask and the kernels' buffers — and the rounds
        write into them.

        Parameters
        ----------
        sketches:
            ``(n, k)`` matrix of categorical values (uint64 MinHash slots).
        """
        sketches = _sketch_matrix(sketches)
        coded = code_sketches(sketches, min(self.num_clusters, sketches.shape[0]))
        chosen, centers = self._initial_centers(
            sketches, distinct_rows(coded.column_ids, coded.col_offsets)
        )
        center_ids = np.full(centers.shape, -1, dtype=np.int64)
        center_ids[:, :, 0] = coded.column_ids[:, chosen].T
        counts = np.empty(
            (sketches.shape[0], centers.shape[0]),
            dtype=np.uint8 if sketches.shape[1] <= 255 else np.int64,
        )
        member = np.empty(centers.shape[0], dtype=bool)
        buffers = FitBuffers.for_coded(coded)

        def match(clusters, _centers, center_ids):
            counts[:, clusters] = match_counts_coded(
                coded, center_ids[clusters], buffers=buffers
            )
            return counts

        def update(labels, clusters, centers, center_ids):
            member[:] = False
            member[clusters] = True
            return top_l_centers(
                coded, labels, np.flatnonzero(member[labels]), centers, center_ids,
                top_l=self.top_l, fill=_FILL, buffers=buffers,
            )

        return self._iterate(sketches.shape, (centers, center_ids), match, update)

    def fit_reference(self, sketches: np.ndarray) -> KModesResult:
        """:meth:`fit` in value space with the Python-loop matcher and
        centre update, every cluster every round — the oracle :meth:`fit`
        is tested against (same initialisation, bit-identical labels,
        centres and cost)."""
        sketches = _sketch_matrix(sketches)
        _, distinct = np.unique(sketches, axis=0, return_index=True)
        _, centers = self._initial_centers(sketches, distinct)
        return self._iterate(
            sketches.shape,
            (centers,),
            match=lambda _clusters, centers: self._match_counts_reference(sketches, centers),
            update=lambda labels, _clusters, centers: (
                self._update_centers_reference(sketches, labels, centers),
            ),
        )


def _sketch_matrix(sketches) -> np.ndarray:
    """``sketches`` as a C-contiguous ``uint64`` matrix, or ``ValueError``."""
    sketches = np.ascontiguousarray(np.asarray(sketches, dtype=np.uint64))
    if sketches.ndim != 2:
        raise ValueError("sketches must be a 2-D matrix")
    if sketches.shape[0] == 0:
        raise ValueError("cannot cluster an empty dataset")
    return sketches

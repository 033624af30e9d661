"""End-to-end stratification pipeline: items → pivots → sketches → strata.

Glues the three stratifier stages together and exposes the two outputs
the rest of the framework consumes:

- a :class:`Stratification` (per-item stratum labels and per-stratum
  member indices), and
- *representative samples* — stratified samples without replacement at
  a given fraction, used by the heterogeneity estimator's progressive
  sampling so profiling runs see the same payload mix as the final
  partitions (Section III-E, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

import repro.obs as obs
from repro.kvstore.codec import EncodedDataset
from repro.stratify.kmodes import CompositeKModes, KModesResult
from repro.stratify.minhash import MinHasher
from repro.stratify.pivots import PivotExtractor


@dataclass
class Stratification:
    """Result of stratifying a dataset.

    Attributes
    ----------
    labels:
        Stratum id per item, shape ``(n,)``.
    strata:
        ``strata[s]`` is the sorted array of item indices in stratum ``s``.
        Every item appears in exactly one stratum.
    kmodes:
        The underlying clustering diagnostics.
    """

    labels: np.ndarray
    strata: list[np.ndarray]
    kmodes: KModesResult | None = None

    @classmethod
    def from_kmodes(cls, result: KModesResult) -> "Stratification":
        """Strata of a clustering: non-empty clusters in cluster-id
        order, re-labelled compactly so stratum ids are dense."""
        labels = result.labels
        clusters = (np.flatnonzero(labels == s) for s in range(result.num_clusters))
        strata = [members for members in clusters if members.size]
        compact = np.empty(labels.size, dtype=np.int64)
        for new_id, members in enumerate(strata):
            compact[members] = new_id
        return cls(labels=compact, strata=strata, kmodes=result)

    @property
    def num_items(self) -> int:
        return int(self.labels.size)

    @property
    def num_strata(self) -> int:
        return len(self.strata)

    def stratum_sizes(self) -> np.ndarray:
        return np.array([s.size for s in self.strata], dtype=np.int64)

    def stratified_sample(self, fraction: float, rng: np.random.Generator) -> np.ndarray:
        """Sample ``fraction`` of the items, proportionally per stratum,
        without replacement (Cochran-style stratified sampling).

        Rounds per-stratum counts with the largest-remainder method so
        the total is exactly ``round(fraction * n)`` (at least 1).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        total = max(1, int(round(fraction * self.num_items)))
        sizes = self.stratum_sizes().astype(np.float64)
        quotas = sizes * total / self.num_items
        counts = np.floor(quotas).astype(np.int64)
        remainder = total - int(counts.sum())
        if remainder > 0:
            order = np.argsort(-(quotas - counts))
            for idx in order[:remainder]:
                if counts[idx] < sizes[idx]:
                    counts[idx] += 1
        # Clip to availability (can undershoot when strata are tiny).
        counts = np.minimum(counts, sizes.astype(np.int64))
        picks: list[np.ndarray] = []
        for stratum, count in zip(self.strata, counts):
            if count > 0:
                picks.append(rng.choice(stratum, size=int(count), replace=False))
        if not picks:
            return np.empty(0, dtype=np.int64)
        out = np.concatenate(picks)
        rng.shuffle(out)
        return out

    def ordered_by_stratum(self) -> np.ndarray:
        """All item indices, ordered stratum 0 first, then 1, … — the
        layout the similar-together partitioner chunks."""
        if not self.strata:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.strata)


@dataclass
class Stratifier:
    """Configurable stratification pipeline.

    Parameters
    ----------
    kind:
        Input domain handed to :class:`PivotExtractor`
        (``"tree" | "graph" | "text" | "set"``).
    num_strata:
        Target number of strata (``K`` for compositeKModes).
    num_hashes:
        MinHash sketch length.
    top_l:
        compositeKModes ``L``.
    seed:
        Master seed; hashing and clustering derive independent streams.
    """

    kind: str
    num_strata: int = 16
    num_hashes: int = 48
    top_l: int = 3
    seed: int = 0
    max_iter: int = 50
    _extractor: PivotExtractor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_strata <= 0:
            raise ValueError("num_strata must be positive")
        self._extractor = PivotExtractor(self.kind)

    def sketch(self, items: Sequence | EncodedDataset) -> np.ndarray:
        """Pivot-extract and sketch a dataset — its records or its
        encoding (see :meth:`PivotExtractor.extract_flat`); ``(n,
        num_hashes)``."""
        with obs.span(
            "stage.sketch", items=len(items), kind=self.kind, num_hashes=self.num_hashes
        ):
            hasher = MinHasher(num_hashes=self.num_hashes, seed=self.seed)
            return hasher.sketch_flat(*self._extractor.extract_flat(items))

    def assign_new(
        self, stratification: Stratification, new_items: Sequence
    ) -> np.ndarray:
        """Assign *new* items to existing strata without reclustering.

        Sketches the new items with the same hash family and matches
        them against the fitted compositeKModes centres, so a growing
        dataset amortizes the one-time stratification cost (the paper's
        Section III motivation). Returns the compact stratum label per
        new item. Raises if the stratification carries no kmodes state.
        """
        if stratification.kmodes is None:
            raise ValueError("stratification has no kmodes centres to assign against")
        if len(new_items) == 0:
            return np.empty(0, dtype=np.int64)
        sketches = self.sketch(new_items)
        kmodes = CompositeKModes(
            num_clusters=self.num_strata, top_l=self.top_l, seed=self.seed + 1
        )
        raw = kmodes.assign(sketches, stratification.kmodes.centers)
        # Map raw kmodes cluster ids onto the compact stratum ids.
        raw_to_compact = {}
        for compact_id, members in enumerate(stratification.strata):
            raw_to_compact[int(stratification.kmodes.labels[members[0]])] = compact_id
        fallback = 0  # raw clusters that were empty at fit time
        return np.array(
            [raw_to_compact.get(int(r), fallback) for r in raw], dtype=np.int64
        )

    def stratify(self, items: Sequence | EncodedDataset) -> Stratification:
        """Run the full pipeline on ``items`` (records or their
        encoding): sketch, then cluster the sketches."""
        if len(items) == 0:
            raise ValueError("cannot stratify an empty dataset")
        with obs.span(
            "stage.stratify", items=len(items), num_strata=self.num_strata
        ) as sp:
            sketches = self.sketch(items)
            kmodes = CompositeKModes(
                num_clusters=self.num_strata,
                top_l=self.top_l,
                max_iter=self.max_iter,
                seed=self.seed + 1,
            )
            stratification = Stratification.from_kmodes(kmodes.fit(sketches))
            sp.set_attr("strata", stratification.num_strata)
            return stratification

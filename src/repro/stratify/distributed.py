"""Distributed stratification pipeline (paper Section IV).

The paper's middleware runs pivot extraction and sketch generation
*distributed* across the cluster nodes — each node processes its share
of the raw data and stores sketches in its local Redis instance — with
global barriers between phases, while sketch clustering runs
*centralized* on a master node ("the size of the sketches … is of
orders of magnitude smaller than the raw data size, which is why it is
easy to fit in a single machine"; distributed clustering over sketches
was "prohibitive in terms of runtime").

:class:`DistributedStratifier` reproduces that execution plan over the
in-process substrate: one worker thread per node, the barrier built on
the KV store's fetch-and-increment, sketches staged through each node's
store, and compositeKModes on the designated master. The result is
bit-identical to the centralized :class:`~repro.stratify.stratifier.Stratifier`
(asserted in tests) — the point is exercising the coordination path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.cluster.barrier import KVBarrier
from repro.cluster.cluster import Cluster
from repro.stratify.kmodes import CompositeKModes
from repro.stratify.minhash import MinHasher
from repro.stratify.pivots import PivotExtractor
from repro.stratify.stratifier import Stratification

_SKETCH_KEY = "sketches:{node}"
_INDEX_KEY = "sketch-index:{node}"


@dataclass
class DistributedStratifier:
    """Barrier-separated, per-node stratification over the KV middleware.

    Parameters mirror :class:`~repro.stratify.stratifier.Stratifier`;
    ``cluster`` supplies the nodes, their stores and the master choice.
    """

    cluster: Cluster
    kind: str
    num_strata: int = 16
    num_hashes: int = 48
    top_l: int = 3
    seed: int = 0
    max_iter: int = 50
    phases_completed: list[str] = field(default_factory=list)

    def _worker(
        self,
        node_id: int,
        items: Sequence[Any],
        indices: np.ndarray,
        barrier: KVBarrier,
        errors: list[BaseException],
    ) -> None:
        try:
            extractor = PivotExtractor(self.kind)
            hasher = MinHasher(num_hashes=self.num_hashes, seed=self.seed)
            store = self.cluster.kv.store_for(node_id)

            # Phase 1: pivot extraction (local) — the centralised
            # stratifier's own flat path, on this node's share.
            flat, offsets = extractor.extract_flat([items[i] for i in indices])
            barrier.wait(party_id=node_id)

            # Phase 2: sketch generation, staged into the local store.
            sketches = hasher.sketch_flat(flat, offsets)
            store.set(_SKETCH_KEY.format(node=node_id), sketches.tobytes())
            store.set(_INDEX_KEY.format(node=node_id), indices.tobytes())
            barrier.wait(party_id=node_id)
        except BaseException as exc:  # repro: noqa[SILENT-EXCEPT] — not swallowed: collected per worker and re-raised by stratify() after join
            errors.append(exc)

    def stratify(self, items: Sequence[Any]) -> Stratification:
        """Run the distributed pipeline; returns the same
        :class:`Stratification` the centralized stratifier produces."""
        items = list(items)
        if not items:
            raise ValueError("cannot stratify an empty dataset")
        p = self.cluster.num_nodes
        self.phases_completed = []

        barrier_master, clustering_master = self.cluster.master_nodes()
        barrier = KVBarrier(
            store=self.cluster.kv.store_for(barrier_master.node_id),
            parties=p,
            name="stratify",
        )

        # Round-robin ownership of raw items, as a data-parallel load
        # of the unpartitioned input would give.
        ownership = [np.arange(node, len(items), p, dtype=np.int64) for node in range(p)]

        errors: list[BaseException] = []
        threads = [
            threading.Thread(
                target=self._worker,
                args=(node, items, ownership[node], barrier, errors),
                name=f"stratify-node-{node}",
            )
            for node in range(p)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        self.phases_completed = ["pivots", "sketches"]

        # Phase 3: the clustering master gathers every node's sketches
        # (one GET per node) and clusters centrally.
        gathered = np.empty((len(items), self.num_hashes), dtype=np.uint64)
        for node in range(p):
            store = self.cluster.kv.store_for(node)
            blob = store.get(_SKETCH_KEY.format(node=node))
            idx = np.frombuffer(
                store.get(_INDEX_KEY.format(node=node)), dtype=np.int64
            )
            sketches = np.frombuffer(blob, dtype=np.uint64).reshape(
                idx.size, self.num_hashes
            )
            gathered[idx] = sketches
        _ = clustering_master  # master selection recorded for parity w/ paper

        kmodes = CompositeKModes(
            num_clusters=self.num_strata,
            top_l=self.top_l,
            max_iter=self.max_iter,
            seed=self.seed + 1,
        )
        result = kmodes.fit(gathered)
        self.phases_completed.append("clustering")
        return Stratification.from_kmodes(result)

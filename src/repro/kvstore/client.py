"""Cluster client: manual key→node placement over per-node stores.

The paper deliberately avoids Redis cluster mode because consistent
hashing would defeat the point — the framework must place each partition
on the node the optimizer chose. :class:`ClusterClient` holds one
:class:`~repro.kvstore.store.KeyValueStore` per node and routes by an
explicit node index, exactly like the paper's middleware.

A partition moves as the paper describes: a list of length-prefixed
byte sequences, written in **one** pipelined batch (delete, one
variadic ``RPUSH`` of every record, metadata) and read back in one
(``LRANGE`` + the kind), so staging costs two round trips per
partition whatever its size. What goes in and comes out is a
:class:`~repro.kvstore.codec.FramedPartition` — the same framed bytes
the dataplane and the workers see; the store keeps one blob per record,
so ``LINDEX``/``LLEN`` still address single items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.kvstore.codec import FramedPartition, decode_record
from repro.kvstore.pipeline import Pipeline
from repro.kvstore.store import KeyValueStore, StoreError

#: Key layout used for partition payloads on each node's store.
PARTITION_KEY = "partition:{pid}"
META_KEY = "partition:{pid}:meta"


@dataclass
class ClusterClient:
    """Routes commands to per-node store instances by explicit node id."""

    num_nodes: int
    pipeline_width: int = 128
    stores: list[KeyValueStore] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise StoreError("cluster must have at least one node")
        self.stores = [KeyValueStore(node_id=i) for i in range(self.num_nodes)]

    def store_for(self, node: int) -> KeyValueStore:
        """The store instance hosted on ``node``."""
        if not 0 <= node < self.num_nodes:
            raise StoreError(f"node {node} out of range [0, {self.num_nodes})")
        return self.stores[node]

    def pipeline_for(self, node: int) -> Pipeline:
        """A fresh pipeline bound to ``node``'s store."""
        return Pipeline(self.store_for(node), width=self.pipeline_width)

    # -- partition payload movement ---------------------------------------

    def put_partition(
        self, node: int, pid: int, records: FramedPartition | Sequence[Iterable[int]]
    ) -> int:
        """Store a partition on ``node`` in one pipelined batch; returns
        the number of records stored. ``records`` is a staged
        :class:`FramedPartition`, or flat integer records to frame."""
        if not isinstance(records, FramedPartition):
            records = FramedPartition.from_records(records)
        key, meta = PARTITION_KEY.format(pid=pid), META_KEY.format(pid=pid)
        with self.pipeline_for(node) as pipe:
            pipe.delete(key)
            if len(records):
                pipe.rpush(key, *records.blobs())
            pipe.hset(meta, "count", len(records))
            pipe.hset(meta, "node", node)
            pipe.hset(meta, "kind", records.kind)
        return len(records)

    def get_partition(self, node: int, pid: int) -> FramedPartition:
        """Fetch a whole partition in a single round trip (``LRANGE``
        and the kind, pipelined). A missing partition comes back empty."""
        pipe = self.pipeline_for(node)
        pipe.lrange(PARTITION_KEY.format(pid=pid))
        pipe.hget(META_KEY.format(pid=pid), "kind")
        blobs, kind = pipe.execute()
        return FramedPartition.from_blobs(kind or "set", blobs)

    def get_item(self, node: int, pid: int, index: int) -> list[int] | None:
        """Fetch one record of a partition without moving the rest."""
        store = self.store_for(node)
        blob = store.lindex(PARTITION_KEY.format(pid=pid), index)
        if blob is None:
            return None
        return decode_record(blob)

    def partition_size(self, node: int, pid: int) -> int:
        """Number of records in a stored partition."""
        return self.store_for(node).llen(PARTITION_KEY.format(pid=pid))

    def total_round_trips(self) -> int:
        """Aggregate round-trip count across all node stores."""
        return sum(s.stats.round_trips for s in self.stores)

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
partition whatever its size. What goes in and comes out is a staged
partition (:class:`~repro.kvstore.codec.EncodedDataset`, the same
slice the dataplane and the workers see). The length-prefixed layout
lives here only: :meth:`ClusterClient.put_partition` frames the slice
into one ``encode_record`` blob per record, so ``LINDEX``/``LLEN``
still address single items, and :meth:`ClusterClient.get_partition`
checks the blobs and strips the headers again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.kvstore.codec import EncodedDataset, decode_record, encode_records
from repro.kvstore.pipeline import Pipeline
from repro.kvstore.store import KeyValueStore, StoreError

_WORD = 4  # bytes per length header and per value


def _frame(part: EncodedDataset) -> list[bytes]:
    """``encode_records`` of the slice's records: every header and value
    laid out in one buffer, then cut at the record boundaries."""
    bounds = part.offsets + np.arange(len(part) + 1)  # record i's header word
    words = np.empty(int(bounds[-1]), dtype="<u4")
    payload = np.ones(words.size, dtype=bool)
    payload[bounds[:-1]] = False
    words[bounds[:-1]] = np.diff(part.offsets)
    words[payload] = part.values
    data, cuts = words.tobytes(), (_WORD * bounds).tolist()
    return [data[a:b] for a, b in zip(cuts, cuts[1:])]


def _unframe(kind: str, blobs: Sequence[bytes]) -> EncodedDataset:
    """Invert :func:`_frame` on an ``LRANGE`` reply; ``ValueError`` on a
    blob that is not a header plus whole uint32 words, or whose header
    disagrees with its size (as :func:`decode_record` raises)."""
    sizes = np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs))
    if (sizes < _WORD).any() or (sizes % _WORD).any():
        raise ValueError("record blob is not a length header plus whole uint32 words")
    words = np.frombuffer(b"".join(blobs), dtype="<u4")
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes // _WORD, out=bounds[1:])
    lengths = sizes // _WORD - 1
    if not np.array_equal(words[bounds[:-1]], lengths):
        raise ValueError("record length mismatch: a header disagrees with its blob")
    payload = np.ones(words.size, dtype=bool)
    payload[bounds[:-1]] = False
    return EncodedDataset(kind, words[payload], bounds - np.arange(sizes.size + 1))


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
        self, node: int, pid: int, records: EncodedDataset | Sequence[Iterable[int]]
    ) -> int:
        """Store a partition on ``node`` in one pipelined batch; returns
        the number of records stored. ``records`` is a staged
        :class:`~repro.kvstore.codec.EncodedDataset`, or flat integer
        records (kind ``"set"``) to frame one by one."""
        if isinstance(records, EncodedDataset):
            kind, blobs = records.kind, _frame(records)
        else:
            kind, blobs = "set", encode_records(records)
        key, meta = PARTITION_KEY.format(pid=pid), META_KEY.format(pid=pid)
        with self.pipeline_for(node) as pipe:
            pipe.delete(key)
            if blobs:
                pipe.rpush(key, *blobs)
            pipe.hset(meta, "count", len(blobs))
            pipe.hset(meta, "node", node)
            pipe.hset(meta, "kind", kind)
        return len(blobs)

    def get_partition(self, node: int, pid: int) -> EncodedDataset:
        """Fetch a whole partition in a single round trip (``LRANGE``
        and the kind, pipelined), headers checked and stripped. A
        missing partition comes back empty."""
        pipe = self.pipeline_for(node)
        pipe.lrange(PARTITION_KEY.format(pid=pid))
        pipe.hget(META_KEY.format(pid=pid), "kind")
        blobs, kind = pipe.execute()
        return _unframe(kind or "set", blobs)

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

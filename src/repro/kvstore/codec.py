"""Length-prefixed raw-bytes codec for partition payloads.

The paper avoids millions of per-item get/put requests by storing a data
item as a sequence of raw bytes whose *first four bytes contain the
length of the data object*, and keeping a list of such sequences per
partition. That gives single-round-trip access to a whole partition
while still allowing indexed access to individual items.

This module implements exactly that framing. Items are arbitrary
iterables of non-negative integers (the universal representation the
stratifier produces for trees, graphs and text: pivot-id sets, adjacency
lists, token-id sets). Integers are packed little-endian uint32 after
the 4-byte length header, so a record is ``[len:u32][payload:u32 * n]``.

The vectorised forms keep one representation of a dataset and of a
staged partition: :func:`encode_dataset` packs a dataset once into
columnar form (:class:`EncodedDataset`: flat ``uint32`` values +
record offsets, what :func:`~repro.kvstore.serializers.flatten_items`
produces), and :meth:`EncodedDataset.gather` slices any index array
out of it into another :class:`EncodedDataset` by a vectorised gather.
That slice is what moves — in its task tuple, to the
worker — and into ``workload.run`` itself. There the flat-kind kernels
read it as columns (:func:`columns_of`, which flattens a plain record
list through ``flatten_items`` too), and only a consumer that walks
records one by one decodes it into Python objects (:func:`records_of`).
The length headers exist only on the KV list:
:meth:`~repro.kvstore.client.ClusterClient.put_partition` frames a
slice into one blob per record and ``get_partition`` strips them
again. :func:`encode_record` / :func:`decode_record` stay the
per-record reference the tests hold the vectorised path to.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.kvstore.serializers import FLAT_KINDS, deserialize_items, flatten_items

_HEADER = struct.Struct("<I")

#: Maximum number of elements a single record may carry (len header is u32).
MAX_RECORD_ITEMS = 0xFFFFFFFF


def encode_record(items: Iterable[int]) -> bytes:
    """Encode one data item as ``[count:u32][item:u32]*``.

    Raises
    ------
    ValueError
        If any element is negative or exceeds the uint32 range.
    """
    arr = np.asarray(list(items), dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > MAX_RECORD_ITEMS):
        raise ValueError("record elements must fit in uint32")
    payload = arr.astype("<u4").tobytes()
    return _HEADER.pack(arr.size) + payload


def decode_record(blob: bytes) -> list[int]:
    """Decode one record produced by :func:`encode_record`."""
    if len(blob) < _HEADER.size:
        raise ValueError("record too short for length header")
    (count,) = _HEADER.unpack_from(blob, 0)
    expected = _HEADER.size + 4 * count
    if len(blob) != expected:
        raise ValueError(f"record length mismatch: header says {count} items, blob has {len(blob)} bytes")
    return np.frombuffer(blob, dtype="<u4", offset=_HEADER.size).astype(int).tolist()


def encode_records(records: Sequence[Iterable[int]]) -> list[bytes]:
    """Encode a whole partition worth of items (one blob per item)."""
    return [encode_record(rec) for rec in records]


def decode_records(blobs: Iterable[bytes]) -> list[list[int]]:
    """Decode a list of record blobs back into integer lists."""
    return [decode_record(blob) for blob in blobs]


def encode_partition(records: Sequence[Iterable[int]]) -> bytes:
    """Concatenate a partition's records into a single byte string.

    Useful when the partition should move as one ``SET``/``GET`` rather
    than a list of blobs; records remain individually addressable through
    the length headers.
    """
    return b"".join(encode_record(rec) for rec in records)


def decode_partition(blob: bytes) -> list[list[int]]:
    """Invert :func:`encode_partition`, walking the length headers."""
    out: list[list[int]] = []
    offset = 0
    n = len(blob)
    while offset < n:
        if n - offset < _HEADER.size:
            raise ValueError("trailing bytes too short for a record header")
        (count,) = _HEADER.unpack_from(blob, offset)
        end = offset + _HEADER.size + 4 * count
        if end > n:
            raise ValueError("record payload truncated")
        out.append(
            np.frombuffer(blob, dtype="<u4", count=count, offset=offset + _HEADER.size)
            .astype(int)
            .tolist()
        )
        offset = end
    return out


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """A dataset serialized once, columnar: record ``i`` is
    ``values[offsets[i]:offsets[i + 1]]`` (``uint32`` values, int64
    offsets). A staged partition is one too — a :meth:`gather` of its
    dataset. Immutable after construction, so threads share it; it
    pickles as its two arrays, so a pool task carries it as two byte
    copies, not an object graph. ``len()`` is the record count, so
    engines can size a job without decoding."""

    #: Dataset kind the records deserialize to (see ``serializers``).
    kind: str
    values: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def nbytes(self) -> int:
        """Size of the records framed for the KV list: a length header
        per record plus the values."""
        return self.values.nbytes + _HEADER.size * len(self)

    def gather(self, indices: Any) -> "EncodedDataset":
        """The records at ``indices`` (any order, repeats allowed), as
        their own encoding."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError(f"record index out of range [0, {len(self)})")
        starts = self.offsets[idx]
        lengths = self.offsets[idx + 1] - starts
        offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        at = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
        return EncodedDataset(self.kind, self.values[at], offsets)

    def records(self) -> list[Any]:
        """Decode into the plain list of items: the Python objects a
        per-record consumer (tree mining, the work-stealing chunker)
        walks.

        Raises
        ------
        ValueError
            If the kind is unknown or a tree frame is malformed (what
            :func:`~repro.kvstore.serializers.deserialize_item` raises).
        """
        flat, cuts = self.values.tolist(), self.offsets.tolist()
        return deserialize_items(self.kind, [flat[a:b] for a, b in zip(cuts, cuts[1:])])


def records_of(partition: Any) -> Any:
    """A partition as Python records: an :class:`EncodedDataset`
    decoded, anything else (already a record list) as it is. Only the
    consumers that walk records one by one call it — tree mining's
    per-tree conversion and the work-stealing chunker; the flat-kind
    kernels read :func:`columns_of` instead."""
    if isinstance(partition, EncodedDataset):
        return partition.records()
    return partition


def columns_of(partition: Any) -> tuple[np.ndarray, np.ndarray]:
    """A flat-kind partition as two columns: ``(values, sizes)``, both
    int64, record ``i`` being the next ``sizes[i]`` entries of
    ``values``.

    An :class:`EncodedDataset` already is those columns, with no Python
    object per record or per value. Anything else is a sequence of
    integer records, flattened by
    :func:`~repro.kvstore.serializers.flatten_items` (``OverflowError``
    on a value outside int64).

    Raises
    ------
    ValueError
        If an encoding's kind is not flat (a tree record is not a value
        list).
    """
    if isinstance(partition, EncodedDataset):
        if partition.kind not in FLAT_KINDS:
            raise ValueError(f"{partition.kind!r} records are not flat value lists")
        return partition.values.astype(np.int64), np.diff(partition.offsets)
    values, offsets = flatten_items("set", partition)
    return values, np.diff(offsets)


def encode_dataset(kind: str, items: Sequence[Any]) -> EncodedDataset:
    """Serialize a whole dataset into columnar form, with no per-record
    Python (``serialize_item`` + ``encode_record`` are the reference).

    Raises
    ------
    ValueError
        If any element is negative or exceeds the uint32 range, or a
        tree's parent and label arrays differ in length.
    """
    values, offsets = flatten_items(kind, items)
    if values.size and (values.min() < 0 or values.max() > MAX_RECORD_ITEMS):
        raise ValueError("record elements must fit in uint32")
    return EncodedDataset(kind, values.astype("<u4"), offsets)

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

A partition's records back to back — what :func:`encode_partition`
emits — are the **single representation of a staged partition**:
:func:`encode_dataset` packs a dataset once into columnar form
(:class:`EncodedDataset`: flat ``uint32`` values + record offsets),
:meth:`EncodedDataset.gather` frames any index array into one
contiguous :class:`FramedPartition` by a vectorised gather, and that
buffer is what moves — through the KV list (one blob per record, so
``LINDEX``/``LLEN`` still address items), into shared memory
out-of-band, to the worker — and into ``workload.run`` itself. There
the flat-kind kernels read it as columns (:func:`columns_of`: the
payload words with the headers stripped, the one flattener of record
lists too), and only a consumer that walks records one by one decodes
it into Python objects (:func:`records_of`).
:func:`encode_record` / :func:`decode_record` stay the per-record
reference the tests hold the vectorised path to.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
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


def _bounds(lengths: np.ndarray) -> np.ndarray:
    """Where each record's header sits among the framed words, then the
    end: the running sum of ``1 + length``."""
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths + 1, out=bounds[1:])
    return bounds


@dataclass(frozen=True, eq=False)
class FramedPartition:
    """One staged partition: its records framed back to back in one
    contiguous ``uint32`` buffer, where each record starts, and how the
    records map back to items.

    ``len()`` is the record count, so engines can size and validate a
    job without decoding. Whoever builds one already knows the record
    lengths (the gather, the ``LRANGE`` reply), so the cut points are
    kept rather than re-walked header by header. Pickle protocol 5
    ships both arrays out-of-band (the dataplane copies them into
    shared memory with a memcpy each); the in-band frame is O(1).
    """

    #: Dataset kind the records deserialize to (see ``serializers``).
    kind: str
    #: ``[count:u32][item:u32]*`` per record, back to back.
    words: np.ndarray
    #: Word position of every record's header, then ``words.size``.
    bounds: np.ndarray

    def __len__(self) -> int:
        return self.bounds.size - 1

    @property
    def nbytes(self) -> int:
        """Size of the framed bytes (what moves through the KV list)."""
        return self.words.nbytes

    def tobytes(self) -> bytes:
        """The framed bytes — ``encode_partition`` of the records."""
        return self.words.tobytes()

    def blobs(self) -> list[bytes]:
        """The framed bytes cut at the record boundaries: one
        :func:`encode_record` blob per record, for the KV list layout."""
        data = self.tobytes()
        cuts = (_HEADER.size * self.bounds).tolist()
        return [data[a:b] for a, b in zip(cuts, cuts[1:])]

    def lengths(self) -> np.ndarray:
        """Every record's item count (int64), once the cut points are
        checked against the length headers.

        Raises
        ------
        ValueError
            If the cut points and the length headers disagree (what
            :func:`decode_record` raises one record at a time).
        """
        lengths = np.diff(self.bounds) - 1
        if (
            self.bounds[0] != 0
            or self.bounds[-1] != self.words.size
            or (lengths < 0).any()
            or not np.array_equal(self.words[self.bounds[:-1]], lengths)
        ):
            raise ValueError("record length mismatch: cut points and headers disagree")
        return lengths

    def records(self) -> list[Any]:
        """Decode into the plain list of items: the Python objects a
        per-record consumer (tree mining, the work-stealing chunker)
        walks. Raises what :meth:`lengths` raises."""
        self.lengths()
        flat, cuts = self.words.tolist(), self.bounds.tolist()
        flats = [flat[a + 1 : b] for a, b in zip(cuts, cuts[1:])]
        return deserialize_items(self.kind, flats)

    @classmethod
    def from_blobs(cls, kind: str, blobs: Sequence[bytes]) -> "FramedPartition":
        """Rejoin per-record blobs (an ``LRANGE`` reply)."""
        sizes = np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs))
        if (sizes < _HEADER.size).any() or (sizes % _HEADER.size).any():
            raise ValueError("record blob is not a length header plus whole uint32 words")
        words = np.frombuffer(b"".join(blobs), dtype="<u4")
        return cls(kind, words, _bounds(sizes // _HEADER.size - 1))

    @classmethod
    def from_records(cls, records: Sequence[Iterable[int]]) -> "FramedPartition":
        """Frame already-flat integer records one by one (the reference
        encoder; staging uses :meth:`EncodedDataset.gather`)."""
        return cls.from_blobs("set", [encode_record(rec) for rec in records])


def records_of(partition: Any) -> Any:
    """A partition as Python records: a :class:`FramedPartition`
    decoded, anything else (already a record list) as it is. Only the
    consumers that walk records one by one call it — tree mining's
    per-tree conversion and the work-stealing chunker; the flat-kind
    kernels read :func:`columns_of` instead."""
    if isinstance(partition, FramedPartition):
        return partition.records()
    return partition


def columns_of(partition: Any) -> tuple[np.ndarray, np.ndarray]:
    """A flat-kind partition as two columns: ``(values, sizes)``, both
    int64, record ``i`` being the next ``sizes[i]`` entries of
    ``values``.

    A :class:`FramedPartition` is checked as :meth:`~FramedPartition
    .records` checks it, then its length headers are stripped from the
    words — no Python object per record or per value. Anything else is
    a sequence of integer records, flattened by two ``fromiter`` passes
    (``OverflowError`` on a value outside int64).

    Raises
    ------
    ValueError
        If a framed partition's cut points and headers disagree, or its
        kind is not flat (a tree record is not a value list).
    """
    if isinstance(partition, FramedPartition):
        if partition.kind not in FLAT_KINDS:
            raise ValueError(f"{partition.kind!r} records are not flat value lists")
        sizes = partition.lengths()
        payload = np.ones(partition.words.size, dtype=bool)
        payload[partition.bounds[:-1]] = False
        return partition.words[payload].astype(np.int64), sizes
    sizes = np.fromiter(map(len, partition), dtype=np.int64, count=len(partition))
    values = np.fromiter(chain.from_iterable(partition), dtype=np.int64, count=int(sizes.sum()))
    return values, sizes


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """A dataset serialized once, columnar: record ``i`` is
    ``values[offsets[i]:offsets[i + 1]]`` (``uint32`` values, int64
    offsets). Immutable after construction, so threads share it."""

    kind: str
    values: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1

    def gather(self, indices: Any) -> FramedPartition:
        """Frame the records at ``indices`` (any order, repeats
        allowed) into one buffer, byte-identical to
        ``encode_partition`` over their ``serialize_item`` forms."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError(f"record index out of range [0, {len(self)})")
        starts = self.offsets[idx]
        lengths = self.offsets[idx + 1] - starts
        total = int(lengths.sum())
        words = np.empty(total + idx.size, dtype="<u4")
        bounds = _bounds(lengths)
        words[bounds[:-1]] = lengths
        first = bounds[:-1] - np.arange(idx.size)  # of each record, among the payload words
        # Payload word e of record j lands j + 1 headers further on.
        e = np.arange(total)
        words[e + np.repeat(np.arange(1, idx.size + 1), lengths)] = self.values[
            e + np.repeat(starts - first, lengths)
        ]
        return FramedPartition(self.kind, words, bounds)


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

"""LZ77 sliding-window compression (Ziv & Lempel, 1977/78 family).

A pure-Python hash-chain implementation over byte strings: literals and
``(distance, length)`` match tokens, serialized with varints. Partition
records (integer lists) are framed through the KV-store codec before
compression, so similar records in a partition create long back-matches
— the low-entropy benefit the similar-together placement buys.

Work units count match-probe operations plus emitted tokens: the coder
is data-intensive and nearly payload-insensitive in throughput, which
is why the paper sees little het-aware gain for LZ77 (Tables II/III).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Sequence

from repro.kvstore.codec import EncodedDataset, columns_of
from repro.perf.lz77_kernels import compress_block, text_lines
from repro.workloads.compression.varint import decode_varint, encode_varint

_MIN_MATCH = 4
_LITERAL_FLAG = 0
_MATCH_FLAG = 1


@dataclass
class LZ77Stats:
    """Coder diagnostics from one compress call."""

    input_bytes: int = 0
    output_bytes: int = 0
    matches: int = 0
    literals: int = 0
    probes: int = 0

    @property
    def ratio(self) -> float:
        """Compression ratio (input / output); >1 means it shrank."""
        if self.output_bytes == 0:
            return 0.0
        return self.input_bytes / self.output_bytes


@dataclass
class LZ77Codec:
    """Configured LZ77 coder.

    Parameters
    ----------
    window:
        Sliding-window size in bytes (max match distance).
    max_chain:
        Hash-chain probe cap per position — bounds worst-case time.
    max_match:
        Longest emitted match.

    :meth:`compress` runs the precomputed-link coder of
    :mod:`repro.perf.lz77_kernels`; :meth:`compress_reference`, the
    original hash-chain loop, is its oracle. Blobs and stats are
    byte-identical.
    """

    window: int = 1 << 15
    max_chain: int = 16
    max_match: int = 255

    def __post_init__(self) -> None:
        if self.window <= 0 or self.max_chain <= 0:
            raise ValueError("window and max_chain must be positive")
        if self.max_match < _MIN_MATCH:
            raise ValueError(f"max_match must be >= {_MIN_MATCH}")

    def compress(self, data: bytes) -> tuple[bytes, LZ77Stats]:
        """Compress ``data``; returns the token stream and stats."""
        blob, counters = compress_block(
            data,
            window=self.window,
            max_chain=self.max_chain,
            max_match=self.max_match,
        )
        return blob, LZ77Stats(
            input_bytes=len(data),
            output_bytes=len(blob),
            matches=counters["matches"],
            literals=counters["literals"],
            probes=counters["probes"],
        )

    def compress_reference(self, data: bytes) -> tuple[bytes, LZ77Stats]:
        """Hash-chain reference coder — the fast kernel's oracle."""
        stats = LZ77Stats(input_bytes=len(data))
        out = bytearray(encode_varint(len(data)))
        n = len(data)
        heads: dict[bytes, deque[int]] = defaultdict(deque)
        pos = 0
        literal_run = bytearray()

        def flush_literals() -> None:
            if literal_run:
                out.append(_LITERAL_FLAG)
                out.extend(encode_varint(len(literal_run)))
                out.extend(literal_run)
                stats.literals += len(literal_run)
                literal_run.clear()

        while pos < n:
            best_len = 0
            best_dist = 0
            if pos + _MIN_MATCH <= n:
                key = data[pos : pos + _MIN_MATCH]
                chain = heads[key]
                # Probe newest-first; stale (out-of-window) entries drop off.
                probes = 0
                for cand in reversed(chain):
                    if probes >= self.max_chain:
                        break
                    probes += 1
                    stats.probes += 1
                    dist = pos - cand
                    if dist > self.window:
                        break
                    length = _MIN_MATCH
                    limit = min(self.max_match, n - pos)
                    while length < limit and data[cand + length] == data[pos + length]:
                        length += 1
                    if length > best_len:
                        best_len = length
                        best_dist = dist
                        if length >= limit:
                            break
            if best_len >= _MIN_MATCH:
                flush_literals()
                out.append(_MATCH_FLAG)
                out.extend(encode_varint(best_dist))
                out.extend(encode_varint(best_len))
                stats.matches += 1
                end = pos + best_len
                while pos < end:
                    if pos + _MIN_MATCH <= n:
                        self._index(heads, data, pos)
                    pos += 1
            else:
                literal_run.append(data[pos])
                if pos + _MIN_MATCH <= n:
                    self._index(heads, data, pos)
                pos += 1
        flush_literals()
        stats.output_bytes = len(out)
        return bytes(out), stats

    def _index(self, heads: dict[bytes, deque[int]], data: bytes, pos: int) -> None:
        chain = heads[data[pos : pos + _MIN_MATCH]]
        chain.append(pos)
        # Keep chains short: entries older than the window are useless.
        while chain and pos - chain[0] > self.window:
            chain.popleft()

    def decompress(self, blob: bytes) -> bytes:
        """Invert :meth:`compress`."""
        total, pos = decode_varint(blob, 0)
        out = bytearray()
        n = len(blob)
        while pos < n:
            flag = blob[pos]
            pos += 1
            if flag == _LITERAL_FLAG:
                length, pos = decode_varint(blob, pos)
                if pos + length > n:
                    raise ValueError("truncated literal run")
                out.extend(blob[pos : pos + length])
                pos += length
            elif flag == _MATCH_FLAG:
                dist, pos = decode_varint(blob, pos)
                length, pos = decode_varint(blob, pos)
                if dist <= 0 or dist > len(out):
                    raise ValueError("match distance out of range")
                start = len(out) - dist
                if dist >= length:  # disjoint source: one slice copy
                    out += out[start : start + length]
                else:
                    for i in range(length):  # self-overlapping, byte-wise
                        out.append(out[start + i])
            else:
                raise ValueError(f"unknown token flag {flag}")
        if len(out) != total:
            raise ValueError(f"decompressed {len(out)} bytes, header said {total}")
        return bytes(out)

    # -- record-level convenience -------------------------------------------

    def compress_text_records(
        self, records: Sequence[Sequence[int]] | EncodedDataset
    ) -> tuple[bytes, LZ77Stats]:
        """Compress the textual form (one space-separated line per record).

        This is what compressing the raw on-disk dataset looks like —
        the setting of the paper's LZ77 tables — and is far more
        compressible than the fixed-width binary framing because nearby
        ids share digit prefixes. The text is built in array passes over
        :func:`~repro.kvstore.codec.columns_of` (a staged partition or a
        record list; a record list's ints must fit int64, negative ones
        keep their ``-``), byte-identical to joining ``str`` of every id.
        """
        return self.compress(text_lines(*columns_of(records)))

    def decompress_text_records(self, blob: bytes) -> list[list[int]]:
        """Inverse of :meth:`compress_text_records`."""
        text = self.decompress(blob)
        if not text:
            return []
        return [
            [int(tok) for tok in line.split()] for line in text.split(b"\n")
        ]

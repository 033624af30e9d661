"""WebGraph-style adjacency-list compression (Boldi & Vigna, WWW 2004).

Implements the format's two core ideas over a partition of adjacency
lists:

- **Reference compression**: each list may be encoded against one of
  the ``window`` previous lists in the partition — a copy-mask over the
  reference's entries (run-length encoded) plus the residual extras.
- **Gap encoding**: residuals are sorted and delta-encoded; gaps are
  written as varints (byte-aligned stand-ins for zeta codes).

Each list is encoded with whichever of {reference, plain-gap} is
smaller, as the real WebGraph does. Similar neighbouring lists (the
similar-together placement) make references cheap and gaps small —
the compression-ratio benefit Figure 4 evaluates.

Work units count reference-candidate comparisons plus encoded symbols:
compression cost grows when the window must be searched harder, and
shrinks per byte when references hit — matching WebGraph's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.perf.webgraph_kernels import compress_lists
from repro.workloads.compression.varint import (
    decode_varint,
    encode_varint,
    gaps_decode,
    gaps_encode,
)

_PLAIN = 0
_REFERENCED = 1

#: Minimum run of consecutive ids encoded as an interval (WebGraph's
#: ``Lmin``; runs shorter than this go through gap coding).
MIN_INTERVAL_LENGTH = 3


def _split_intervals(values: Sequence[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Split a sorted list into maximal consecutive runs ≥ Lmin and
    residual values (WebGraph interval extraction)."""
    intervals: list[tuple[int, int]] = []
    residuals: list[int] = []
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[j] + 1:
            j += 1
        run = j - i + 1
        if run >= MIN_INTERVAL_LENGTH:
            intervals.append((values[i], run))
        else:
            residuals.extend(values[i : j + 1])
        i = j + 1
    return intervals, residuals


@dataclass
class WebGraphStats:
    """Coder diagnostics from one compress call."""

    input_edges: int = 0
    raw_bytes: int = 0
    output_bytes: int = 0
    referenced_lists: int = 0
    plain_lists: int = 0
    work_units: float = 0.0

    @property
    def ratio(self) -> float:
        """Raw (4 bytes/edge) over compressed size; >1 means it shrank."""
        if self.output_bytes == 0:
            return 0.0
        return self.raw_bytes / self.output_bytes

    @property
    def bits_per_edge(self) -> float:
        if self.input_edges == 0:
            return 0.0
        return 8.0 * self.output_bytes / self.input_edges


def _encode_plain(neighbours: Sequence[int]) -> bytes:
    """Interval + gap coding of one sorted list (WebGraph's base coder):
    ``[n_intervals][interval lefts gap-coded][lengths − Lmin]
    [n_residual_gaps][residual gaps]``."""
    intervals, residuals = _split_intervals(list(neighbours))
    out = bytearray(encode_varint(len(intervals)))
    lefts = gaps_encode([start for start, _ in intervals])
    for left in lefts:
        out.extend(encode_varint(left))
    for _start, length in intervals:
        out.extend(encode_varint(length - MIN_INTERVAL_LENGTH))
    gaps = gaps_encode(residuals)
    out.extend(encode_varint(len(gaps)))
    for g in gaps:
        out.extend(encode_varint(g))
    return bytes(out)


def _decode_plain(data: bytes, pos: int) -> tuple[list[int], int]:
    n_intervals, pos = decode_varint(data, pos)
    lefts_gapped = []
    for _ in range(n_intervals):
        left, pos = decode_varint(data, pos)
        lefts_gapped.append(left)
    lefts = gaps_decode(lefts_gapped)
    values: list[int] = []
    for left in lefts:
        length, pos = decode_varint(data, pos)
        values.extend(range(left, left + length + MIN_INTERVAL_LENGTH))
    count, pos = decode_varint(data, pos)
    gaps = []
    for _ in range(count):
        g, pos = decode_varint(data, pos)
        gaps.append(g)
    values.extend(gaps_decode(gaps))
    return sorted(values), pos


def _copy_runs(mask: Sequence[bool]) -> list[int]:
    """Run-length encode a boolean copy mask, first run = kept entries."""
    runs: list[int] = []
    current = True
    count = 0
    for bit in mask:
        if bit == current:
            count += 1
        else:
            runs.append(count)
            current = bit
            count = 1
    runs.append(count)
    return runs


def _encode_referenced(
    neighbours: Sequence[int], reference: Sequence[int], ref_offset: int
) -> bytes:
    """Encode against a reference list ``ref_offset`` records back."""
    target = set(neighbours)
    mask = [v in target for v in reference]
    copied = {v for v, keep in zip(reference, mask) if keep}
    extras = sorted(target - copied)
    runs = _copy_runs(mask)
    out = bytearray(encode_varint(ref_offset))
    out.extend(encode_varint(len(runs)))
    for r in runs:
        out.extend(encode_varint(r))
    out.extend(_encode_plain(extras))
    return bytes(out)


def _decode_referenced(
    data: bytes, pos: int, previous: list[list[int]]
) -> tuple[list[int], int]:
    ref_offset, pos = decode_varint(data, pos)
    if not 1 <= ref_offset <= len(previous):
        raise ValueError("reference offset out of range")
    reference = previous[-ref_offset]
    n_runs, pos = decode_varint(data, pos)
    runs = []
    for _ in range(n_runs):
        r, pos = decode_varint(data, pos)
        runs.append(r)
    mask: list[bool] = []
    keep = True
    for run in runs:
        mask.extend([keep] * run)
        keep = not keep
    if len(mask) != len(reference):
        raise ValueError("copy mask length mismatch")
    copied = [v for v, k in zip(reference, mask) if k]
    extras, pos = _decode_plain(data, pos)
    return sorted(set(copied) | set(extras)), pos


@dataclass
class WebGraphCodec:
    """Configured WebGraph-style coder.

    Parameters
    ----------
    window:
        How many previous lists are candidate references (WebGraph's
        ``W``; 7 is the format's classic default).

    :meth:`compress` scores every list's reference candidates by computed
    byte length in array passes over the whole partition and
    varint-encodes the winners in one batched call;
    :meth:`compress_reference`, its oracle, serializes every candidate
    with per-symbol Python loops. Blobs and stats are byte-identical.
    """

    window: int = 7

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window must be non-negative")

    def compress(self, adjacency: Sequence[Sequence[int]]) -> tuple[bytes, WebGraphStats]:
        """Compress a partition of adjacency lists with the whole-partition
        kernel (:func:`repro.perf.webgraph_kernels.compress_lists`): blob
        and stats byte-identical to :meth:`compress_reference`'s.

        Every byte the format emits is a varint — the flag bytes 0/1
        are exactly their own varint encodings — so the whole blob is
        one varint stream. The kernel scores every list's reference
        candidates by *computed* byte length in array passes over the
        partition, one pass set per distance, and serializes only the
        winners, in one scatter. Ids are ``uint64``: a negative id or
        one ≥ 2^64 raises ``ValueError``.
        """
        blob, counts = compress_lists(adjacency, self.window)
        stats = WebGraphStats(
            input_edges=counts["input_edges"],
            raw_bytes=4 * counts["input_edges"],
            output_bytes=len(blob),
            referenced_lists=counts["referenced_lists"],
            plain_lists=len(adjacency) - counts["referenced_lists"],
            work_units=float(counts["work_units"]),
        )
        return blob, stats

    def compress_reference(self, adjacency: Sequence[Sequence[int]]) -> tuple[bytes, WebGraphStats]:
        """Per-symbol Python coder — the batched kernel's oracle."""
        stats = WebGraphStats()
        out = bytearray(encode_varint(len(adjacency)))
        history: list[list[int]] = []
        for neighbours in adjacency:
            neighbours = sorted(set(int(v) for v in neighbours))
            stats.input_edges += len(neighbours)
            plain = _encode_plain(neighbours)
            best = plain
            best_flag = _PLAIN
            target = set(neighbours)
            for back in range(1, min(self.window, len(history)) + 1):
                reference = history[-back]
                stats.work_units += len(reference)
                # Cheap reject: a reference sharing nothing cannot win.
                if not target.intersection(reference):
                    continue
                cand = _encode_referenced(neighbours, reference, back)
                if len(cand) < len(best):
                    best = cand
                    best_flag = _REFERENCED
            out.append(best_flag)
            out.extend(best)
            stats.work_units += len(best) + len(neighbours)
            if best_flag == _REFERENCED:
                stats.referenced_lists += 1
            else:
                stats.plain_lists += 1
            history.append(neighbours)
            if len(history) > self.window:
                history.pop(0)
        stats.raw_bytes = 4 * stats.input_edges
        stats.output_bytes = len(out)
        return bytes(out), stats

    def decompress(self, blob: bytes) -> list[list[int]]:
        """Invert :meth:`compress`."""
        count, pos = decode_varint(blob, 0)
        lists: list[list[int]] = []
        history: list[list[int]] = []
        for _ in range(count):
            flag = blob[pos]
            pos += 1
            if flag == _PLAIN:
                neighbours, pos = _decode_plain(blob, pos)
            elif flag == _REFERENCED:
                neighbours, pos = _decode_referenced(blob, pos, history)
            else:
                raise ValueError(f"unknown list flag {flag}")
            lists.append(neighbours)
            history.append(neighbours)
            if len(history) > self.window:
                history.pop(0)
        return lists

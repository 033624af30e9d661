"""Fast LZ77 coder kernels and batched varint encoding.

The reference :meth:`LZ77Codec.compress` maintains Python
``dict[bytes, deque]`` hash chains — a bytes-slice allocation plus dict
probe per scanned position — and extends matches one byte at a time.
The kernels here remove both costs while emitting the **byte-identical
token stream** (and identical probe/match/literal statistics):

- :func:`build_match_links` precomputes, with one vectorised stable
  argsort over the 4-byte keys, a ``prev`` array linking every position
  to the nearest earlier position with the same 4-byte prefix — the
  hash chains of the reference, newest-first, materialised up front.
  Because links compare the actual 32-bit key there are no hash
  collisions to re-verify.
- :func:`scan_matches` walks the links with the reference's exact
  probe discipline (``max_chain`` cap, the window-trimming the deques
  performed, the count-then-break on the first out-of-window entry)
  and extends candidate matches by slice comparison — one ``memcmp``
  per doubling step instead of one interpreter iteration per byte.
  :func:`serialize_tokens` turns the chosen matches into the token
  stream; :func:`compress_block` composes the two.
- :func:`encode_varint_batch` LEB128-encodes a whole int array at once
  (vectorised byte-count + scatter), so match tokens and the WebGraph
  coder's gap lists serialize without a per-value Python call.

Kernels are pure numpy + stdlib, importable without touching the
workload modules; the reference coder survives as
``LZ77Codec.compress_reference`` and the equivalence suite asserts
identical blobs and stats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MIN_MATCH = 4
_LITERAL_FLAG = 0
_MATCH_FLAG = 1


def build_match_links(data: bytes) -> np.ndarray:
    """``prev[i]`` = nearest ``j < i`` with ``data[j:j+4] == data[i:i+4]``.

    Returns an int64 array of length ``max(len(data) - 3, 0)`` with
    ``-1`` where no earlier occurrence exists. Equal keys keep position
    order via a stable argsort, so following the links walks the
    reference's deque newest-first.
    """
    n = len(data)
    if n < _MIN_MATCH:
        return np.empty(0, dtype=np.int64)
    arr = np.frombuffer(data, dtype=np.uint8)
    keys = (
        arr[: n - 3].astype(np.uint32)
        | (arr[1 : n - 2].astype(np.uint32) << np.uint32(8))
        | (arr[2 : n - 1].astype(np.uint32) << np.uint32(16))
        | (arr[3:].astype(np.uint32) << np.uint32(24))
    )
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    prev = np.full(keys.size, -1, dtype=np.int64)
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _match_length(data: bytes, cand: int, pos: int, limit: int) -> int:
    """Longest ``L <= limit`` with ``data[cand:cand+L] == data[pos:pos+L]``.

    The first ``_MIN_MATCH`` bytes are known equal (same 4-byte key);
    the extension binary-searches with slice compares (memcmp) instead
    of byte-at-a-time interpreter steps. ``data[a:a+L] == data[b:b+L]``
    is a pure function of the *original* buffer, exactly like the
    reference's ``data[cand + length] == data[pos + length]`` walk, so
    self-overlapping matches behave identically.
    """
    if data[cand + _MIN_MATCH : cand + limit] == data[pos + _MIN_MATCH : pos + limit]:
        return limit
    lo, hi = _MIN_MATCH, limit - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if data[cand + lo : cand + mid] == data[pos + lo : pos + mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def encode_varint_batch(values: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode an array of non-negative ints in one pass.

    Returns ``(buf, offsets)``: ``buf`` is a uint8 array of the
    concatenated encodings and value ``i`` occupies
    ``buf[offsets[i]:offsets[i + 1]]`` — byte-identical to calling the
    scalar ``encode_varint`` per value.
    """
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind != "u" and values.min() < 0:
            raise ValueError("varint requires non-negative values")
        v = values.astype(np.uint64)
    else:
        try:
            # Direct uint64 conversion: a plain np.asarray would promote
            # a mix of small ints and values >= 2**63 to float64 and
            # silently round them.
            v = np.asarray(values, dtype=np.uint64)
        except OverflowError as exc:
            raise ValueError(
                "varint batch values must be non-negative and fit uint64"
            ) from exc
    if v.size == 0:
        return np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    nbytes = np.ones(v.size, dtype=np.int64)
    shifted = v >> np.uint64(7)
    while shifted.any():
        nbytes += shifted > 0
        shifted >>= np.uint64(7)
    offsets = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    buf = np.empty(int(offsets[-1]), dtype=np.uint8)
    rem = v.copy()
    for j in range(int(nbytes.max())):
        active = nbytes > j
        byte = (rem[active] & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[active] > j + 1).astype(np.uint8) << np.uint8(7)
        buf[offsets[:-1][active] + j] = byte | cont
        rem >>= np.uint64(7)
    return buf, offsets


def encode_varints_bytes(values: Sequence[int] | np.ndarray) -> bytes:
    """Concatenated LEB128 encodings of ``values`` as one bytes object."""
    buf, _ = encode_varint_batch(values)
    return buf.tobytes()


def scan_matches(
    data: bytes, links: np.ndarray, *, window: int, max_chain: int, max_match: int
) -> tuple[list[int], list[int], list[int], int]:
    """Walk precomputed links, choosing the reference coder's matches.

    ``links`` is the output of :func:`build_match_links`. Returns
    ``(match_pos, match_dists, match_lens, probes_total)`` — matches in
    position order with the reference's exact probe accounting.
    """
    n = len(data)
    nlink = links.size

    probes_total = 0
    match_pos: list[int] = []
    match_dists: list[int] = []
    match_lens: list[int] = []

    pos = 0
    while pos < n:
        best_len = 0
        best_dist = 0
        if pos < nlink:
            cand = int(links[pos])
            # The reference deque was front-trimmed whenever a same-key
            # position was indexed: after the newest entry `first` went
            # in, only entries >= first - window survive. An
            # out-of-window candidate still in the deque costs one
            # probe before the break; a trimmed one costs nothing.
            first = cand
            probes = 0
            limit = min(max_match, n - pos)
            while cand >= 0:
                if probes >= max_chain:
                    break
                dist = pos - cand
                if dist > window:
                    if cand >= first - window:
                        probes += 1
                    break
                probes += 1
                length = _match_length(data, cand, pos, limit)
                if length > best_len:
                    best_len = length
                    best_dist = dist
                    if length >= limit:
                        break
                cand = int(links[cand])
            probes_total += probes
        if best_len >= _MIN_MATCH:
            match_pos.append(pos)
            match_dists.append(best_dist)
            match_lens.append(best_len)
            pos += best_len
        else:
            pos += 1
    return match_pos, match_dists, match_lens, probes_total


def serialize_tokens(
    data: bytes,
    match_pos: Sequence[int],
    match_dists: Sequence[int],
    match_lens: Sequence[int],
    probes_total: int,
) -> tuple[bytes, dict[str, int]]:
    """Serialize a match scan into the reference coder's token stream.

    Returns ``(blob, stats)`` where stats carries the reference's
    counters: ``matches``, ``literals``, ``probes``.
    """
    n = len(data)
    # Each op is (literal_start, literal_end, match_index); match_index
    # -1 marks the trailing literal run. Literal runs are the gaps
    # between consecutive matches.
    ops: list[tuple[int, int, int]] = []
    prev_end = 0
    for mi in range(len(match_pos)):
        ops.append((prev_end, int(match_pos[mi]), mi))
        prev_end = int(match_pos[mi]) + int(match_lens[mi])
    if prev_end < n:
        ops.append((prev_end, n, -1))

    # Serialize: header + runs + match tokens, all varints batch-encoded
    # up front (a single-value encode_varint_batch call per literal run
    # would pay numpy dispatch ~5000 times on repetitive data).
    run_lens = [lit_b - lit_a for lit_a, lit_b, _ in ops if lit_b > lit_a]
    dist_buf, dist_off = encode_varint_batch(match_dists)
    len_buf, len_off = encode_varint_batch(match_lens)
    run_buf, run_off = encode_varint_batch(run_lens)
    dist_mem = dist_buf.data
    len_mem = len_buf.data
    run_mem = run_buf.data
    out = bytearray(encode_varints_bytes([n]))
    literals_total = 0
    ri = 0
    for lit_a, lit_b, mi in ops:
        if lit_b > lit_a:
            literals_total += lit_b - lit_a
            out.append(_LITERAL_FLAG)
            out += run_mem[run_off[ri] : run_off[ri + 1]]
            ri += 1
            out += data[lit_a:lit_b]
        if mi >= 0:
            out.append(_MATCH_FLAG)
            out += dist_mem[dist_off[mi] : dist_off[mi + 1]]
            out += len_mem[len_off[mi] : len_off[mi + 1]]
    stats = {
        "matches": len(match_dists),
        "literals": literals_total,
        "probes": probes_total,
    }
    return bytes(out), stats


def compress_block(
    data: bytes, *, window: int, max_chain: int, max_match: int
) -> tuple[bytes, dict[str, int]]:
    """LZ77-compress ``data``; byte-identical to the reference coder.

    Composes :func:`build_match_links`, :func:`scan_matches` and
    :func:`serialize_tokens`. Returns ``(blob, stats)`` where stats
    carries the reference's counters: ``matches``, ``literals``,
    ``probes``.
    """
    links = build_match_links(data)
    match_pos, match_dists, match_lens, probes_total = scan_matches(
        data, links, window=window, max_chain=max_chain, max_match=max_match
    )
    return serialize_tokens(data, match_pos, match_dists, match_lens, probes_total)

"""Fast LZ77 coder kernels and batched varint encoding.

The reference :meth:`LZ77Codec.compress` maintains Python
``dict[bytes, deque]`` hash chains — a bytes-slice allocation plus dict
probe per scanned position — and extends matches one byte at a time.
The kernels here run no Python per chain candidate or per token while
emitting the **byte-identical token stream** (and identical
probe/match/literal statistics):

- :func:`build_match_links` precomputes, with one plain sort of the
  4-byte keys packed above their positions, a ``prev`` array linking
  every position to the nearest earlier position with the same 4-byte
  prefix — the hash chains of the reference, newest-first, materialised
  up front. Because links compare the actual 32-bit key there are no
  hash collisions to re-verify.
- :func:`scan_matches` scores a block of positions at a time: it
  follows the links ``max_chain`` deep for every position of the block
  at once, extends every (position, candidate) pair eight bytes per
  step on an aligned array of little-endian ``uint64`` words (one per
  byte offset), and applies the reference's probe discipline
  (``max_chain`` cap, the window trimming the deques performed, the
  break on a match that reaches the limit) as masks. The greedy parse
  then walks the block's per-position best — the only sequential step,
  and it visits parse positions only.
- :func:`serialize_tokens` lays the token stream out with one
  offsets cumsum and scatters headers, varints and literal bytes into
  one preallocated buffer; :func:`compress_block` composes the three.
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
#: Positions scored per vectorised pass. Temporaries are
#: O(block × ``max_chain``), so peak memory does not grow with the input.
_BLOCK = 4096
#: Positions scored per block while the parse runs at ``max_match``.
_RUN_BLOCK = 64


def build_match_links(data: bytes) -> np.ndarray:
    """``prev[i]`` = nearest ``j < i`` with ``data[j:j+4] == data[i:i+4]``.

    Returns an int64 array of length ``max(len(data) - 3, 0)`` with
    ``-1`` where no earlier occurrence exists. One plain sort of the
    packed ``key << 32 | position`` values orders equal keys by
    position (what a stable argsort of the keys would), so following
    the links walks the reference's deque newest-first. Positions must
    fit 32 bits (inputs under 4 GiB).
    """
    n = len(data)
    if n < _MIN_MATCH:
        return np.empty(0, dtype=np.int64)
    if n - 3 > 1 << 32:
        raise ValueError("build_match_links takes inputs under 4 GiB")
    arr = np.frombuffer(data, dtype=np.uint8)
    keys = (
        arr[: n - 3].astype(np.uint64)
        | (arr[1 : n - 2].astype(np.uint64) << np.uint64(8))
        | (arr[2 : n - 1].astype(np.uint64) << np.uint64(16))
        | (arr[3:].astype(np.uint64) << np.uint64(24))
    )
    packed = keys << np.uint64(32)
    packed |= np.arange(n - 3, dtype=np.uint64)
    packed.sort()
    order = (packed & np.uint64(0xFFFF_FFFF)).astype(np.int64)
    sorted_keys = packed >> np.uint64(32)
    prev = np.full(n - 3, -1, dtype=np.int64)
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """LEB128 byte length of every value (non-negative, ≤ 64 bits)."""
    nbytes = np.ones(values.size, dtype=np.int64)
    shifted = values.astype(np.uint64, copy=False) >> np.uint64(7)
    while shifted.any():
        nbytes += shifted > 0
        shifted >>= np.uint64(7)
    return nbytes


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
    nbytes = varint_lengths(v)
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


def text_lines(values: np.ndarray, sizes: np.ndarray) -> bytes:
    """The records ``values`` holds back to back (record ``i`` is the
    next ``sizes[i]`` int64 values) as text: one line per record, its
    values in decimal separated by spaces — byte-identical to
    ``"\\n".join(" ".join(map(str, rec)) for rec in records).encode()``.

    Every value is written with its separator after it (a space, or the
    newline that ends its record; an empty record is its newline alone),
    so one cumsum places every value, and the digits are scattered one
    decimal place per pass. The last newline is dropped.
    """
    if not sizes.size:
        return b""
    negative = values < 0
    magnitude = values.view(np.uint64)
    magnitude = np.where(negative, np.uint64(0) - magnitude, magnitude)
    digits = np.ones(values.size, dtype=np.int64)
    rest = magnitude // np.uint64(10)
    while rest.any():
        digits += rest > 0
        rest //= np.uint64(10)
    width = digits + negative
    ends = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(width + 1, out=ends[1:])
    value_end = np.cumsum(sizes)
    empty = sizes == 0
    record_end = ends[value_end] + np.cumsum(empty)
    start = ends[:-1] + np.repeat(np.cumsum(empty) - empty, sizes)
    total = int(record_end[-1])
    text = np.full(total + 1, ord(" "), dtype=np.uint8)  # the last byte: a sink
    text[record_end - 1] = ord("\n")
    text[start[negative]] = ord("-")
    last = start + width - 1
    for place in range(int(digits.max(initial=0))):
        magnitude, digit = np.divmod(magnitude, np.uint64(10))
        text[np.where(digits > place, last - place, total)] = digit + ord("0")
    return text[: total - 1].tobytes()


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + l) for s, l in zip(starts, lengths))``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        ends[-1] if ends.size else 0
    )


def _word_view(data: bytes) -> np.ndarray:
    """``w[i]`` = ``data[i:i+8]`` as a little-endian ``uint64``, zero-padded
    past the end: one word per offset, copied out of an overlapping
    view into an aligned array so every gather reads aligned words."""
    buf = np.zeros(len(data) + 8, dtype=np.uint8)
    buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    return np.ndarray((len(data) + 1,), dtype="<u8", buffer=buf, strides=(1,)).copy()


def _extend(words: np.ndarray, a: np.ndarray, b: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Per pair, the longest ``L <= limit`` with ``data[a:a+L] == data[b:b+L]``.

    The first ``_MIN_MATCH`` bytes are known equal (same 4-byte key).
    Each step compares eight bytes of every still-equal pair; the equal
    byte count of a word is its trailing-zero count / 8 (little-endian,
    so the lowest set bit is the first differing byte). ``a < b``, and
    ``data[a + i] == data[b + i]`` is a pure function of the original
    buffer like the reference's byte walk, so self-overlapping matches
    behave identically.
    """
    length = np.full(a.size, _MIN_MATCH, dtype=np.int64)
    live = np.flatnonzero(limit > _MIN_MATCH)
    while live.size:
        off = length[live]
        x = words[a[live] + off] ^ words[b[live] + off]
        same = np.bitwise_count((x & -x) - 1) >> 3  # 8 when x == 0
        length[live] = off + same
        live = live[(same == 8) & (off + 8 < limit[live])]
    return np.minimum(length, limit)


def _score_block(
    words: np.ndarray,
    links: np.ndarray,
    pos: np.ndarray,
    *,
    n: int,
    window: int,
    max_chain: int,
    max_match: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference's choice at every position of ``pos``.

    ``links`` is :func:`build_match_links`'s output with a trailing
    ``-1``, so following a link from ``-1`` stays at ``-1``; ``n`` is
    the input length. Returns ``(best_len, best_dist, probes)`` per
    position, ``best_len`` 0 where no candidate is in the window.
    """
    width = pos.size
    limit = np.minimum(n - pos, max_match)
    # chain[k] is every position's k-th candidate, -1 past the chain's end.
    chain = np.full((max_chain, width), -1, dtype=np.int64)
    chain[0] = first = links[pos]
    for k in range(1, max_chain):
        chain[k] = links[chain[k - 1]]
        if chain[k].max() < 0:
            break
    # Links walk newest-first, so the candidates the reference's deque
    # still held (it trimmed entries older than its newest, `first`, by
    # more than the window) and the in-window ones are both prefixes.
    in_deque = chain >= np.maximum(first - window, 0)
    in_window = chain >= np.maximum(pos - window, 0)
    lengths = np.zeros(chain.shape, dtype=np.int64)
    # A candidate that reaches the limit ends the probe walk — on a run,
    # the nearest one does — so deeper candidates are extended only
    # where the nearest fell short.
    near = np.flatnonzero(in_window[0])
    lengths[0, near] = _extend(words, chain[0, near], pos[near], limit[near])
    flat_chain, flat_len = chain.ravel(), lengths.ravel()
    deep = np.flatnonzero(in_window[1:] & (lengths[0] < limit)) + width
    col = deep % width
    flat_len[deep] = _extend(words, flat_chain[deep], pos[col], limit[col])
    # The earliest strict maximum wins: rank by length, then by depth.
    rank = (lengths * max_chain + np.arange(max_chain - 1, -1, -1)[:, None]).max(axis=0)
    best_len = rank // max_chain
    depth = max_chain - 1 - rank % max_chain
    # Probes: every candidate up to the first that reaches the limit;
    # else every in-window one plus, if the deque still held it, the
    # first one past the window (it costs one probe before the break).
    n_in = in_window.sum(axis=0)
    probes = np.where(
        best_len >= limit, depth + 1, np.minimum(in_deque.sum(axis=0), n_in + 1)
    )
    best_dist = pos - flat_chain[depth * width + np.arange(width)]
    return best_len, best_dist, probes


def scan_matches(
    data: bytes, links: np.ndarray, *, window: int, max_chain: int, max_match: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Choose the reference coder's matches from precomputed links.

    ``links`` is the output of :func:`build_match_links`. Returns
    ``(match_pos, match_dists, match_lens, probes_total)`` — int64
    arrays in position order and the reference's exact probe count.

    Each block starts at the parse position. It is ``_BLOCK``
    consecutive positions, except right after a ``max_match``-long
    match: on a run the parse then lands every ``max_match`` bytes, so
    the block speculates on exactly those ``_RUN_BLOCK`` positions and
    the parse leaves it at the first shorter match.
    """
    n = len(data)
    nlink = links.size
    words = _word_view(data)
    links = np.append(links, -1)
    probes_total = 0
    empty = np.empty(0, dtype=np.int64)
    found = [(empty, empty, empty)]
    pos, stride = 0, 1
    # Positions past the last 4-byte key have no candidates: literals.
    while pos < nlink:
        count = _BLOCK if stride == 1 else _RUN_BLOCK
        at = np.arange(pos, min(pos + stride * count, nlink), stride)
        best_len, best_dist, probes = _score_block(
            words, links, at, n=n, window=window, max_chain=max_chain, max_match=max_match
        )
        if stride == 1:
            step = best_len.tolist()
            visited, i = [], 0
            while i < at.size:
                visited.append(i)
                i += step[i] or 1
            seen = np.array(visited)
        else:
            # The parse stays on the stride while every match is max_match long.
            run = best_len == max_match
            seen = np.arange(at.size if run.all() else int(run.argmin()) + 1)
        last = seen[-1]
        probes_total += int(probes[seen].sum())
        pos = int(at[last]) + max(int(best_len[last]), 1)
        stride = max_match if best_len[last] == max_match else 1
        seen = seen[best_len[seen] > 0]
        found.append((at[seen], best_dist[seen], best_len[seen]))
    match_pos, match_dists, match_lens = (np.concatenate(col) for col in zip(*found))
    return match_pos, match_dists, match_lens, probes_total


def serialize_tokens(
    data: bytes,
    match_pos: np.ndarray,
    match_dists: np.ndarray,
    match_lens: np.ndarray,
    probes_total: int,
) -> tuple[bytes, dict[str, int]]:
    """Serialize a match scan into the reference coder's token stream.

    The stream is ``varint(n)``, then per match the literal run before
    it (flag, varint length, bytes; absent when empty) and the match
    (flag, varint distance, varint length), then the trailing run. All
    token sizes are known up front, so one cumsum places every token and
    each field is scattered into one preallocated buffer.

    Returns ``(blob, stats)`` where stats carries the reference's
    counters: ``matches``, ``literals``, ``probes``.
    """
    n = len(data)
    m = match_pos.size
    # Literal run i precedes match i; run m is the trailing one.
    run_start = np.concatenate(([0], match_pos + match_lens))
    run_len = np.concatenate((match_pos, [n])) - run_start
    lit = np.flatnonzero(run_len > 0)
    head_buf, _ = encode_varint_batch([n])
    run_buf, run_off = encode_varint_batch(run_len[lit])
    dist_buf, dist_off = encode_varint_batch(match_dists)
    len_buf, len_off = encode_varint_batch(match_lens)
    run_hdr = 1 + np.diff(run_off)
    dist_size = np.diff(dist_off)

    sizes = np.zeros((m + 1, 2), dtype=np.int64)  # (run i, match i) interleaved
    sizes[lit, 0] = run_hdr + run_len[lit]
    sizes[:m, 1] = 1 + dist_size + np.diff(len_off)
    at = np.empty(sizes.size + 1, dtype=np.int64)
    at[0] = head_buf.size
    np.cumsum(sizes.ravel(), out=at[1:])
    at[1:] += head_buf.size
    run_at = at[0:-1:2][lit]
    match_at = at[1:-1:2][:m]

    out = np.empty(int(at[-1]), dtype=np.uint8)
    out[: head_buf.size] = head_buf
    out[run_at] = _LITERAL_FLAG
    out[_ranges(run_at + 1, run_hdr - 1)] = run_buf
    src = np.frombuffer(data, dtype=np.uint8)
    out[_ranges(run_at + run_hdr, run_len[lit])] = src[_ranges(run_start[lit], run_len[lit])]
    out[match_at] = _MATCH_FLAG
    out[_ranges(match_at + 1, dist_size)] = dist_buf
    out[_ranges(match_at + 1 + dist_size, np.diff(len_off))] = len_buf
    stats = {
        "matches": m,
        "literals": int(run_len.sum()),
        "probes": probes_total,
    }
    return out.tobytes(), stats


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

"""Byte-identity tests: fast LZ77 / batched WebGraph coders vs reference.

The fast coders claim byte-for-byte identical blobs *and* identical
probe/match/literal statistics. Hypothesis drives repetitive byte
streams (where matches and chain walks actually trigger) and adjacency
partitions through both paths; tiny windows and ``max_chain=1`` stress
the deque-trimming probe accounting the fast coder emulates.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.datasets import load_dataset
from repro.kvstore.codec import columns_of
from repro.perf.lz77_kernels import (
    build_match_links,
    encode_varint_batch,
    encode_varints_bytes,
    text_lines,
    varint_lengths,
)
from repro.workloads.compression.lz77 import LZ77Codec
from repro.workloads.compression.varint import encode_varint
from repro.workloads.compression.webgraph import WebGraphCodec

# Low-alphabet streams maximise match density; st.binary covers the
# incompressible end.
repetitive_strategy = st.lists(
    st.sampled_from([b"abcab", b"aaaa", b"xyz", b"\x00\x00\x00\x00", b"q"]),
    max_size=40,
).map(b"".join)


class TestBuildMatchLinks:
    def test_short_input_has_no_links(self):
        assert build_match_links(b"abc").size == 0

    def test_links_point_to_nearest_same_key(self):
        data = b"abcdXabcdYabcd"
        links = build_match_links(data)
        assert links[5] == 0  # second "abcd" -> first
        assert links[10] == 5  # third "abcd" -> second

    @given(st.binary(max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_links_are_exact_key_matches(self, data):
        links = build_match_links(data)
        for i, j in enumerate(links.tolist()):
            if j >= 0:
                assert data[j : j + 4] == data[i : i + 4]
                assert j < i


def match_links_by_stable_argsort(data: bytes) -> np.ndarray:
    """The links as one stable argsort of the 4-byte keys computes them:
    the form the packed-key sort replaced, kept as its oracle."""
    n = len(data)
    if n < 4:
        return np.empty(0, dtype=np.int64)
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    keys = arr[: n - 3] | arr[1 : n - 2] << 8 | arr[2 : n - 1] << 16 | arr[3:] << 24
    order = np.argsort(keys, kind="stable")
    prev = np.full(keys.size, -1, dtype=np.int64)
    same = keys[order][1:] == keys[order][:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


class TestPackedKeyLinks:
    @pytest.mark.parametrize("data", [b"", b"a", b"abc", b"\xff\xff\xff", b"abcd"])
    def test_shorter_than_a_key_and_one_key(self, data):
        assert np.array_equal(build_match_links(data), match_links_by_stable_argsort(data))

    @pytest.mark.parametrize("byte", [b"\x00", b"a", b"\xff"])
    def test_one_repeated_byte(self, byte):
        data = byte * 5000  # every key equal: position order is the whole sort
        links = build_match_links(data)
        assert np.array_equal(links, match_links_by_stable_argsort(data))
        assert links.tolist() == [-1, *range(len(data) - 4)]

    @given(st.binary(max_size=3000), st.sampled_from([b"", b"abab" * 50]))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes(self, data, tail):
        data += tail
        assert np.array_equal(build_match_links(data), match_links_by_stable_argsort(data))


def text_by_join(records) -> bytes:
    """The text framing as ``str`` and ``join`` write it: the oracle of
    the array framing."""
    return "\n".join(" ".join(map(str, rec)) for rec in records).encode()


class TestTextLines:
    @pytest.mark.parametrize(
        "records",
        [
            [],
            [[]],
            [[], []],
            [[0]],
            [[2**32 - 1], [0, 2**32 - 1]],
            [[], [7], [], [10, 100, 1000], []],
            [[9, 10, 99, 100, 999, 1000, 10**9, 10**18, 2**63 - 1]],
        ],
    )
    def test_edges_match_the_join(self, records):
        assert text_lines(*columns_of(records)) == text_by_join(records)

    def test_negative_ints_keep_their_sign_on_the_record_list_path(self):
        # A staged partition holds uint32 values only; a record list may
        # carry negative ints, and they are written as str writes them.
        records = [[-5, 3], [-1, 0, -(2**63)], [], [-10]]
        assert text_lines(*columns_of(records)) == text_by_join(records)
        assert text_lines(*columns_of([[-5]])) == b"-5"

    @given(
        st.lists(
            st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(0, 99), max_size=8),
            max_size=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_random_records_match_the_join(self, records):
        assert text_lines(*columns_of(records)) == text_by_join(records)

    def test_a_staged_partition_frames_as_its_records(self):
        from repro.kvstore.codec import encode_dataset

        records = [[5, 40, 2**32 - 1], [], [0]]
        framed = encode_dataset("graph", records).gather(np.arange(3))
        assert text_lines(*columns_of(framed)) == text_by_join(records)


class TestVarintBatch:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_byte_identical_to_scalar(self, values):
        buf, offsets = encode_varint_batch(values)
        scalar = b"".join(encode_varint(v) for v in values)
        assert buf.tobytes() == scalar
        for i, v in enumerate(values):
            assert bytes(buf[offsets[i] : offsets[i + 1]]) == encode_varint(v)

    def test_uint64_edge_values(self):
        edges = [0, 127, 128, 2**63 - 1, 2**63, 2**64 - 1]
        assert encode_varints_bytes(edges) == b"".join(encode_varint(v) for v in edges)

    def test_empty(self):
        buf, offsets = encode_varint_batch([])
        assert buf.size == 0 and offsets.tolist() == [0]

    def test_lengths(self):
        edges = [0, 127, 128, 2**14 - 1, 2**14, 2**63 - 1, 2**63, 2**64 - 1]
        got = varint_lengths(np.array(edges, dtype=np.uint64)).tolist()
        assert got == [len(encode_varint(v)) for v in edges]
        # Signed counts (the WebGraph kernel's bincounts) size the same.
        assert varint_lengths(np.array([0, 128, 2**14], dtype=np.int64)).tolist() == [1, 2, 3]


class TestLZ77Equivalence:
    @given(
        repetitive_strategy | st.binary(max_size=300),
        st.sampled_from([4, 16, 1 << 15]),
        st.sampled_from([1, 2, 16]),
        st.sampled_from([4, 8, 255]),
    )
    @example(b"", 16, 2, 8)
    @example(b"a", 16, 2, 8)
    @settings(max_examples=50, deadline=None)
    def test_blob_and_stats_match_reference(self, data, window, max_chain, max_match):
        fast = LZ77Codec(window=window, max_chain=max_chain, max_match=max_match)
        blob_f, st_f = fast.compress(data)
        blob_r, st_r = fast.compress_reference(data)
        assert blob_f == blob_r
        assert st_f == st_r
        assert fast.decompress(blob_f) == data

    @staticmethod
    def assert_matches_reference(data, **codec_kwargs):
        codec = LZ77Codec(**codec_kwargs)
        blob_f, st_f = codec.compress(data)
        blob_r, st_r = codec.compress_reference(data)
        assert blob_f == blob_r
        assert st_f == st_r
        return st_f

    def test_input_spanning_several_blocks(self):
        # > 2 scoring blocks; matches cross block boundaries.
        rng = random.Random(3)
        chunks = [
            bytes(rng.randrange(97, 101) for _ in range(rng.randint(3, 60))) for _ in range(40)
        ]
        data = b"".join(rng.choice(chunks) for _ in range(1200))
        assert len(data) >= 20_000
        for max_chain in (1, 8, 16):
            stats = self.assert_matches_reference(data, max_chain=max_chain)
            assert stats.matches > 100

    def test_ruler_shaped_partition_trims_the_window(self):
        # uk text as the compression workload frames it, with a window
        # short enough that candidates fall out of it mid-input: the
        # nearest same-key position is sometimes already past the window
        # and still costs its one probe.
        records = load_dataset("uk", size_scale=0.8, seed=0).items[:300]
        text = "\n".join(" ".join(map(str, rec)) for rec in records).encode()
        window = 4096
        links = build_match_links(text)
        positions = np.arange(links.size)
        assert ((links >= 0) & (positions - links > window)).any()
        stats = self.assert_matches_reference(text, window=window, max_chain=8)
        assert stats.probes > stats.matches > 0

    @pytest.mark.parametrize("max_chain", [1, 16])
    def test_limit_binds_on_every_candidate(self, max_chain):
        # max_match=4 on long runs: every candidate reaches the limit,
        # so each probe walk stops at its first candidate.
        data = b"a" * 9000 + b"ab" * 3000 + b"\x00" * 7000
        stats = self.assert_matches_reference(data, max_match=4, max_chain=max_chain)
        assert stats.probes == stats.matches
        self.assert_matches_reference(data, max_chain=max_chain)

    def test_text_framing_of_numpy_ints(self):
        # compress_text_records must frame numpy-int items exactly as
        # str(int(v)) did.
        rng = np.random.default_rng(4)
        records = [
            rng.integers(0, 10**6, size=int(rng.integers(0, 30))).astype(dtype)
            for dtype in (np.int64, np.uint32, np.int32) * 20
        ]
        records.append([np.int64(-7), np.uint8(255), 3])
        text = b"\n".join(b" ".join(str(int(v)).encode() for v in rec) for rec in records)
        codec = LZ77Codec()
        blob, stats = codec.compress_text_records(records)
        assert (blob, stats) == codec.compress_reference(text)
        assert codec.decompress_text_records(blob) == [[int(v) for v in r] for r in records]

    @given(st.lists(st.lists(st.integers(0, 50), max_size=10), max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_record_roundtrip(self, records):
        codec = LZ77Codec()
        blob, _ = codec.compress_records(records)
        assert codec.decompress_records(blob) == [[int(v) for v in r] for r in records]


class TestWebGraphEquivalence:
    adjacency_strategy = st.lists(
        st.lists(st.integers(min_value=0, max_value=120), max_size=25),
        max_size=20,
    )

    @given(adjacency_strategy, st.sampled_from([0, 1, 3, 7]))
    @example([], 7)
    @example([[1, 2, 3]], 7)
    @settings(max_examples=50, deadline=None)
    def test_blob_and_stats_match_reference(self, adjacency, window):
        fast = WebGraphCodec(window=window)
        blob_f, st_f = fast.compress(adjacency)
        blob_r, st_r = fast.compress_reference(adjacency)
        assert blob_f == blob_r
        assert st_f == st_r
        expected = [sorted(set(int(v) for v in lst)) for lst in adjacency]
        assert fast.decompress(blob_f) == expected

    def test_interval_heavy_lists(self):
        adjacency = [list(range(10, 40)), list(range(10, 40)) + [99], [0, 2, 4, 6]]
        fast, _ = WebGraphCodec().compress(adjacency)
        ref, _ = WebGraphCodec().compress_reference(adjacency)
        assert fast == ref

"""Unit and property tests for the LZ77 coder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.codec import encode_records
from repro.workloads.compression.lz77 import LZ77Codec


@pytest.fixture(scope="module")
def codec():
    return LZ77Codec()


class TestRoundtrip:
    def test_empty(self, codec):
        blob, stats = codec.compress(b"")
        assert codec.decompress(blob) == b""
        assert stats.input_bytes == 0

    def test_short_literal_only(self, codec):
        data = b"abc"
        blob, stats = codec.compress(data)
        assert codec.decompress(blob) == data
        assert stats.matches == 0

    def test_repetitive(self, codec):
        data = b"abcabcabcabcabcabc" * 20
        blob, stats = codec.compress(data)
        assert codec.decompress(blob) == data
        assert stats.matches > 0
        assert len(blob) < len(data)

    def test_self_overlapping_match(self, codec):
        # 'aaaa...' forces matches whose source overlaps the copy target.
        data = b"a" * 500
        blob, _ = codec.compress(data)
        assert codec.decompress(blob) == data

    def test_binary_data(self, codec):
        data = bytes(range(256)) * 4
        blob, _ = codec.compress(data)
        assert codec.decompress(blob) == data

    @given(st.binary(max_size=2000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        codec = LZ77Codec(window=256, max_chain=4)
        blob, _ = codec.compress(data)
        assert codec.decompress(blob) == data


class TestCompressionBehaviour:
    def test_repetitive_beats_random(self, codec):
        import random

        rng = random.Random(0)
        random_data = bytes(rng.randrange(256) for _ in range(4000))
        repetitive = b"the quick brown fox " * 200
        _, stats_rand = codec.compress(random_data)
        _, stats_rep = codec.compress(repetitive)
        assert stats_rep.ratio > stats_rand.ratio
        assert stats_rep.ratio > 3.0

    def test_stats_consistency(self, codec):
        data = b"hello world hello world hello"
        blob, stats = codec.compress(data)
        assert stats.input_bytes == len(data)
        assert stats.output_bytes == len(blob)
        assert stats.ratio == pytest.approx(len(data) / len(blob))

    def test_window_limits_match_distance(self):
        # A repeat farther than the window cannot be matched.
        data = b"unique-prefix-0123456789" + b"x" * 600 + b"unique-prefix-0123456789"
        small = LZ77Codec(window=64)
        blob_small, stats_small = small.compress(data)
        large = LZ77Codec(window=4096)
        blob_large, stats_large = large.compress(data)
        assert len(blob_large) <= len(blob_small)
        assert small.decompress(blob_small) == data
        assert large.decompress(blob_large) == data

    def test_max_chain_bounds_probes(self):
        data = b"ab" * 3000
        shallow = LZ77Codec(max_chain=1)
        deep = LZ77Codec(max_chain=64)
        _, stats_shallow = shallow.compress(data)
        _, stats_deep = deep.compress(data)
        assert stats_shallow.probes <= stats_deep.probes


class TestRecordFraming:
    def test_binary_records_roundtrip(self, codec):
        framed = b"".join(encode_records([[1, 2, 3], [], [70000, 5]]))
        blob, _ = codec.compress(framed)
        assert codec.decompress(blob) == framed

    def test_text_records_roundtrip(self, codec):
        records = [[10, 20, 30], [7], [999, 1000]]
        blob, _ = codec.compress_text_records(records)
        assert codec.decompress_text_records(blob) == records

    def test_text_records_empty(self, codec):
        blob, _ = codec.compress_text_records([])
        assert codec.decompress_text_records(blob) == []

    def test_similar_records_compress_better(self, codec):
        base = list(range(100, 160))
        similar = [base for _ in range(30)]
        import random

        rng = random.Random(1)
        dissimilar = [sorted(rng.sample(range(10000), 60)) for _ in range(30)]
        _, s_sim = codec.compress_text_records(similar)
        _, s_dis = codec.compress_text_records(dissimilar)
        assert s_sim.ratio > s_dis.ratio


class TestValidation:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LZ77Codec(window=0)
        with pytest.raises(ValueError):
            LZ77Codec(max_chain=0)
        with pytest.raises(ValueError):
            LZ77Codec(max_match=2)

    def test_corrupt_stream_rejected(self, codec):
        blob, _ = codec.compress(b"hello hello hello hello")
        with pytest.raises(ValueError):
            codec.decompress(blob[:-1] + b"\xff")

    def test_unknown_flag_rejected(self, codec):
        from repro.workloads.compression.varint import encode_varint

        bad = encode_varint(4) + bytes([9]) + b"zzz"
        with pytest.raises(ValueError):
            codec.decompress(bad)

"""Unit and property tests for the length-prefixed record codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.codec import (
    MAX_RECORD_ITEMS,
    decode_record,
    decode_records,
    encode_record,
    encode_records,
)

items_strategy = st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=64)


class TestRecord:
    def test_roundtrip_simple(self):
        assert decode_record(encode_record([1, 2, 3])) == [1, 2, 3]

    def test_empty_record(self):
        blob = encode_record([])
        assert len(blob) == 4
        assert decode_record(blob) == []

    def test_header_is_first_four_bytes(self):
        blob = encode_record([7, 8])
        assert int.from_bytes(blob[:4], "little") == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_record([-1])

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            encode_record([MAX_RECORD_ITEMS + 1])

    def test_decode_truncated_header(self):
        with pytest.raises(ValueError):
            decode_record(b"\x01")

    def test_decode_length_mismatch(self):
        blob = encode_record([1, 2]) + b"extra"
        with pytest.raises(ValueError):
            decode_record(blob)

    @given(items_strategy)
    @settings(max_examples=100)
    def test_roundtrip_property(self, items):
        assert decode_record(encode_record(items)) == items


class TestRecords:
    def test_roundtrip_many(self):
        recs = [[1], [], [2, 3, 4]]
        assert decode_records(encode_records(recs)) == recs

    @given(st.lists(items_strategy, max_size=16))
    @settings(max_examples=50)
    def test_roundtrip_property(self, recs):
        assert decode_records(encode_records(recs)) == recs

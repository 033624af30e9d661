"""The vectorised staging path against the per-record reference.

``serialize_item`` / ``deserialize_item`` / ``encode_record`` /
``decode_record`` define the wire format one record at a time;
``encode_dataset`` + ``gather`` + ``EncodedDataset.records``, and the
KV list that ``put_partition`` writes and ``get_partition`` reads, must
be indistinguishable from them — same bytes, same items, same errors —
for every kind, including the shapes real datasets rarely produce.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.client import ClusterClient
from repro.kvstore.codec import (
    EncodedDataset,
    decode_record,
    encode_dataset,
    encode_records,
    records_of,
)
from repro.kvstore.serializers import deserialize_item, serialize_item, tree_columns

U32 = 2**32 - 1
FLAT_KINDS = ("graph", "text", "set")
KINDS = FLAT_KINDS + ("tree",)

# Bias towards the boundary values; empty records and trees included.
words = st.one_of(st.sampled_from([0, 1, U32 - 1, U32]), st.integers(0, U32))
flat_item = st.lists(words, max_size=12)


@st.composite
def tree_item(draw):
    n = draw(st.integers(0, 8))
    parent = draw(st.lists(st.one_of(st.just(-1), st.integers(-1, U32 - 1)), min_size=n, max_size=n))
    labels = draw(st.lists(words, min_size=n, max_size=n))
    return (tuple(parent), tuple(labels))


def item_of(kind):
    return tree_item() if kind == "tree" else flat_item


@st.composite
def dataset_and_indices(draw):
    """``(kind, items, indices)``: indices in any order, with repeats,
    possibly empty — as is the dataset."""
    kind = draw(st.sampled_from(KINDS))
    items = draw(st.lists(item_of(kind), max_size=10))
    if items:
        indices = draw(st.lists(st.integers(0, len(items) - 1), max_size=16))
    else:
        indices = []
    return kind, items, indices


def reference_blobs(kind, items, indices):
    return encode_records([serialize_item(kind, items[i]) for i in indices])


def stored_blobs(part, node=0, pid=0):
    """The KV list ``put_partition`` writes for ``part``."""
    client = ClusterClient(num_nodes=1)
    client.put_partition(node, pid, part)
    return client.store_for(node).lrange(f"partition:{pid}")


def same_slice(a, b):
    return (
        a.kind == b.kind
        and a.values.dtype == b.values.dtype
        and a.values.tobytes() == b.values.tobytes()
        and a.offsets.tolist() == b.offsets.tolist()
    )


class TestAgainstTheReference:
    @given(dataset_and_indices())
    @settings(max_examples=300, deadline=None)
    def test_gather_frames_the_reference_bytes(self, case):
        """A gather is the encoding of the gathered items, and the KV
        list frames it into the reference's blobs."""
        kind, items, indices = case
        part = encode_dataset(kind, items).gather(np.array(indices, dtype=np.int64))
        assert same_slice(part, encode_dataset(kind, [items[i] for i in indices]))
        blobs = reference_blobs(kind, items, indices)
        assert stored_blobs(part) == blobs
        assert len(part) == len(indices) and part.nbytes == sum(map(len, blobs))

    @given(dataset_and_indices())
    @settings(max_examples=300, deadline=None)
    def test_records_decode_to_the_reference_items(self, case):
        kind, items, indices = case
        part = encode_dataset(kind, items).gather(indices)
        expected = [
            deserialize_item(kind, decode_record(blob))
            for blob in reference_blobs(kind, items, indices)
        ]
        assert part.records() == expected
        assert records_of(part) == expected
        # The generated items are already in canonical form (lists of
        # ints, tuple pairs), so decoding returns the items themselves.
        assert expected == [items[i] for i in indices]

    @given(dataset_and_indices())
    @settings(max_examples=100, deadline=None)
    def test_survives_the_out_of_band_pickle(self, case):
        kind, items, indices = case
        part = encode_dataset(kind, items).gather(indices)
        buffers = []
        frame = pickle.dumps(part, protocol=5, buffer_callback=buffers.append)
        assert len(frame) < 400  # O(1): the columns travel out of band
        back = pickle.loads(frame, buffers=[b.raw() for b in buffers])
        assert (back.kind, len(back)) == (kind, len(indices))
        assert same_slice(back, part)
        assert back.records() == part.records()

    def test_whole_dataset_in_order_is_the_identity_gather(self):
        items = [[3, 1, 2], [], [U32], [0]]
        encoded = encode_dataset("text", items)
        assert len(encoded) == 4
        assert same_slice(encoded.gather(np.arange(4)), encoded)
        assert encoded.gather(np.arange(4)).records() == items

    def test_blobs_are_cut_at_the_kept_bounds_not_by_walking_headers(self):
        """The KV list frames each record from the slice's offsets: the
        values alone say nothing about where a record ends."""
        part = EncodedDataset("set", np.array([9, 9, 9], dtype="<u4"), np.array([0, 1, 3]))
        assert stored_blobs(part) == encode_records([[9], [9, 9]])

    def test_plain_records_pass_through_the_seam(self):
        records = [[1, 2], [3]]
        assert records_of(records) is records


class TestSameErrors:
    """What the reference rejects, ``encode_dataset`` rejects — at
    ``prepare``, whichever way the partition then travels."""

    @pytest.mark.parametrize("kind", FLAT_KINDS)
    @pytest.mark.parametrize("bad", [-1, U32 + 1, 2**40])
    def test_out_of_range_value(self, kind, bad):
        items = [[1, 2], [3, bad]]
        with pytest.raises(ValueError):
            encode_records([serialize_item(kind, it) for it in items])
        with pytest.raises(ValueError, match="uint32"):
            encode_dataset(kind, items)

    @pytest.mark.parametrize(
        "tree",
        [((-2,), (1,)), ((-1,), (-1,)), ((U32,), (1,)), ((-1,), (U32 + 1,))],
    )
    def test_out_of_range_tree(self, tree):
        with pytest.raises(ValueError):
            encode_records([serialize_item("tree", tree)])
        with pytest.raises(ValueError, match="uint32"):
            encode_dataset("tree", [((-1,), (0,)), tree])

    def test_tree_length_mismatch(self):
        tree = ((-1, 0), (1,))
        with pytest.raises(ValueError, match="length mismatch"):
            serialize_item("tree", tree)
        with pytest.raises(ValueError, match="length mismatch"):
            encode_dataset("tree", [((-1,), (0,)), tree])

    def test_tree_that_is_not_a_pair(self):
        with pytest.raises(ValueError):
            serialize_item("tree", ((-1,), (0,), (0,)))
        with pytest.raises(ValueError, match="pairs"):
            encode_dataset("tree", [((-1,), (0,), (0,))])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            encode_dataset("audio", [[1]])
        with pytest.raises(ValueError, match="unknown kind"):
            EncodedDataset("audio", np.array([1, 7], dtype="<u4"), np.array([0, 2])).records()

    @pytest.mark.parametrize("bad", [[-1], [3], [0, 3]])
    def test_index_out_of_range(self, bad):
        encoded = encode_dataset("set", [[1], [2], [3]])
        with pytest.raises(IndexError):
            encoded.gather(np.array(bad))

    def test_corrupt_buffers_do_not_decode(self):
        """Tree frames whose node count and length disagree raise what
        ``deserialize_item`` raises, when decoded and when read as
        columns."""
        values = encode_dataset("set", [[1, 2, 3], [4]]).values
        for offsets, message in [
            ([0, 3, 4], "tree record length mismatch"),  # [4] claims 4 nodes in 1 word
            ([0, 0, 4], "empty tree record"),
        ]:
            part = EncodedDataset("tree", values, np.array(offsets))
            with pytest.raises(ValueError, match=message):
                part.records()
            with pytest.raises(ValueError, match=message):
                tree_columns(part.values, part.offsets)

    @staticmethod
    def _get_raw(blobs):
        """``get_partition`` over a KV list holding ``blobs`` as is."""
        client = ClusterClient(num_nodes=1)
        client.store_for(0).rpush("partition:0", *blobs)
        return client.get_partition(0, 0)

    @pytest.mark.parametrize("blob", [b"", b"\x01\x00", b"\x00\x00\x00\x00\x07"])
    def test_blobs_that_are_not_records_do_not_join(self, blob):
        with pytest.raises(ValueError):
            decode_record(blob)
        with pytest.raises(ValueError, match="length header"):
            self._get_raw([b"\x00\x00\x00\x00", blob])

    def test_a_blob_whose_header_lies_does_not_decode(self):
        lying = b"\x02\x00\x00\x00" + b"\x07\x00\x00\x00"  # says 2 items, holds 1
        with pytest.raises(ValueError, match="length mismatch"):
            decode_record(lying)
        with pytest.raises(ValueError, match="length mismatch"):
            self._get_raw([lying])


class TestThroughTheStore:
    @given(dataset_and_indices())
    @settings(max_examples=100, deadline=None)
    def test_lrange_joins_back_to_the_put_buffer(self, case):
        """``get_partition(put_partition(slice))`` is the slice, and the
        list in between holds ``encode_records`` of its records."""
        kind, items, indices = case
        part = encode_dataset(kind, items).gather(indices)
        client = ClusterClient(num_nodes=2)
        assert client.put_partition(1, 3, part) == len(indices)
        store = client.store_for(1)
        assert store.lrange("partition:3") == reference_blobs(kind, items, indices)
        assert client.partition_size(1, 3) == len(indices)
        fetched = client.get_partition(1, 3)
        assert same_slice(fetched, part)
        assert fetched.records() == [items[i] for i in indices]
        for position, i in enumerate(indices):
            assert client.get_item(1, 3, position) == serialize_item(kind, items[i])
        assert client.get_item(1, 3, len(indices)) is None

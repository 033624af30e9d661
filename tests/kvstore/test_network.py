"""Tests for byte accounting and the network cost model."""

import numpy as np
import pytest

from repro.kvstore.client import ClusterClient
from repro.kvstore.network import NetworkModel, snapshot
from repro.kvstore.pipeline import Pipeline
from repro.kvstore.store import KeyValueStore, StoreStats, _payload_bytes


class TestPayloadBytes:
    def test_bytes(self):
        assert _payload_bytes(b"abcd") == 4

    def test_str(self):
        assert _payload_bytes("héllo") == len("héllo".encode())

    def test_int(self):
        assert _payload_bytes(0) == 1
        assert _payload_bytes(255) == 1
        assert _payload_bytes(256) == 2

    def test_containers(self):
        assert _payload_bytes([b"ab", b"c"]) == 3
        assert _payload_bytes({"k": b"abc"}) == 1 + 3

    def test_buffer_types_count_their_bytes(self):
        """A buffer is priced at what it holds, not at a flat 8 bytes —
        ``NetworkModel`` turns this number into seconds."""
        words = np.arange(1000, dtype="<u4")
        assert _payload_bytes(words) == 4000
        assert _payload_bytes(memoryview(words)) == 4000
        assert _payload_bytes(memoryview(b"x" * 37)) == 37
        assert _payload_bytes((words, b"ab")) == 4002

    def test_blob_sequences_sum_lengths(self):
        blobs = tuple(bytes(n % 7) for n in range(6000))
        assert _payload_bytes(blobs) == sum(len(b) for b in blobs)
        assert _payload_bytes(list(blobs) + [bytearray(5)]) == _payload_bytes(blobs) + 5
        # Mixed sequences still price each element by its own type.
        assert _payload_bytes((b"abc", 256, "hé", [b"x"])) == 3 + 2 + 3 + 1
        assert _payload_bytes(()) == 0


class TestByteAccounting:
    def test_set_get_counted(self):
        store = KeyValueStore()
        store.set("k", b"x" * 100)
        store.get("k")
        assert store.stats.bytes_moved == 200

    def test_lrange_counts_slice_only(self):
        store = KeyValueStore()
        store.rpush("l", b"a" * 10, b"b" * 10)
        before = store.stats.bytes_moved
        store.lrange("l", 0, 0)
        assert store.stats.bytes_moved == before + 10

    def test_partition_bytes_counted_once_each_way(self):
        client = ClusterClient(num_nodes=1)
        records = [[i, i + 1, i + 2] for i in range(300)]
        client.put_partition(0, 0, records)
        store = client.store_for(0)
        framed_bytes = 300 * (4 + 3 * 4)  # header + three items per record
        assert store.stats.bytes_moved == framed_bytes
        client.get_partition(0, 0)
        assert store.stats.bytes_moved == 2 * framed_bytes

    def test_llen_moves_nothing(self):
        store = KeyValueStore()
        store.rpush("l", b"a" * 50)
        before = store.stats.bytes_moved
        store.llen("l")
        assert store.stats.bytes_moved == before


class TestNetworkModel:
    def test_transfer_time(self):
        net = NetworkModel(latency_s=0.001, bandwidth_bytes_per_s=1000.0)
        assert net.transfer_time_s(10, 500) == pytest.approx(0.01 + 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1.0)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            NetworkModel().transfer_time_s(-1, 0)

    def test_store_and_client_time(self):
        client = ClusterClient(num_nodes=2)
        client.put_partition(0, 0, [[1, 2, 3]] * 10)
        net = NetworkModel()
        times = [net.delta_time_s(StoreStats(), s.stats) for s in client.stores]
        # Only the store that took the partition moved any traffic.
        assert times[0] > 0 and times[1] == 0

    def test_delta_accounting(self):
        store = KeyValueStore()
        store.set("a", b"x" * 100)
        before = snapshot(store)
        store.set("b", b"y" * 50)
        net = NetworkModel(latency_s=1.0, bandwidth_bytes_per_s=50.0)
        assert net.delta_time_s(before, store.stats) == pytest.approx(1.0 + 1.0)


class TestPaperClaims:
    def test_pipelining_cuts_latency_cost(self):
        """The §IV claim: batching requests up to the pipeline width
        substantially improves response times on a latency-bound link."""
        net = NetworkModel(latency_s=0.001, bandwidth_bytes_per_s=1e9)

        naive = KeyValueStore()
        for i in range(500):
            naive.rpush("l", b"x" * 20)
        piped = KeyValueStore()
        with Pipeline(piped, width=0) as pipe:
            for i in range(500):
                pipe.rpush("l", b"x" * 20)
        assert net.delta_time_s(StoreStats(), piped.stats) < 0.05 * net.delta_time_s(
            StoreStats(), naive.stats
        )

    def test_single_get_partition_beats_per_item_gets(self):
        """The §IV claim: the list layout fetches a whole partition in
        one request instead of one per item."""
        net = NetworkModel(latency_s=0.001, bandwidth_bytes_per_s=1e9)
        records = [[i, i + 1, i + 2] for i in range(300)]

        batched = ClusterClient(num_nodes=1)
        batched.put_partition(0, 0, records)
        before = snapshot(batched.store_for(0))
        batched.get_partition(0, 0)
        batched_time = net.delta_time_s(before, batched.store_for(0).stats)

        itemised = ClusterClient(num_nodes=1)
        itemised.put_partition(0, 0, records)
        before = snapshot(itemised.store_for(0))
        for i in range(len(records)):
            itemised.get_item(0, 0, i)
        itemised_time = net.delta_time_s(before, itemised.store_for(0).stats)

        assert batched_time < 0.05 * itemised_time

"""Unit tests for the cluster client (manual key→node placement)."""

import pytest

from repro.kvstore.client import ClusterClient
from repro.kvstore.codec import encode_dataset
from repro.kvstore.store import StoreError


@pytest.fixture()
def client():
    return ClusterClient(num_nodes=4)


class TestRouting:
    def test_one_store_per_node(self, client):
        assert len(client.stores) == 4
        assert [s.node_id for s in client.stores] == [0, 1, 2, 3]

    def test_store_for_bounds(self, client):
        with pytest.raises(StoreError):
            client.store_for(4)
        with pytest.raises(StoreError):
            client.store_for(-1)

    def test_zero_nodes_rejected(self):
        with pytest.raises(StoreError):
            ClusterClient(num_nodes=0)

    def test_data_stays_on_target_node(self, client):
        client.put_partition(2, 0, [[1, 2, 3]])
        assert client.partition_size(2, 0) == 1
        for other in (0, 1, 3):
            assert client.store_for(other).stats.round_trips == 0


class TestPartitionMovement:
    def test_put_get_roundtrip(self, client):
        records = [[1, 2, 3], [], [7]]
        stored = client.put_partition(1, 5, records)
        assert stored == 3
        assert client.get_partition(1, 5).records() == records

    def test_put_overwrites_previous(self, client):
        client.put_partition(0, 1, [[1]])
        client.put_partition(0, 1, [[2, 3]])
        assert client.get_partition(0, 1).records() == [[2, 3]]

    def test_get_item_by_index(self, client):
        client.put_partition(0, 0, [[1], [2, 2], [3]])
        assert client.get_item(0, 0, 1) == [2, 2]
        assert client.get_item(0, 0, 99) is None

    def test_partition_size(self, client):
        client.put_partition(3, 7, [[1], [2]])
        assert client.partition_size(3, 7) == 2
        assert client.partition_size(3, 99) == 0

    def test_metadata_written(self, client):
        client.put_partition(2, 9, [[1], [2], [3]])
        store = client.store_for(2)
        assert store.hget("partition:9:meta", "count") == 3
        assert store.hget("partition:9:meta", "node") == 2

    def test_whole_partition_fetch_is_single_round_trip(self, client):
        client.put_partition(0, 0, [[i] for i in range(200)])
        store = client.store_for(0)
        before = store.stats.round_trips
        client.get_partition(0, 0)
        assert store.stats.round_trips == before + 1

    def test_put_is_one_batch_whatever_the_size(self, client):
        """Delete, the variadic RPUSH and the metadata ride one
        pipelined batch: a partition costs one round trip to place."""
        store = client.store_for(0)
        for records in ([[1]], [[i, i + 1] for i in range(5000)]):
            before = store.stats.round_trips
            client.put_partition(0, 0, records)
            assert store.stats.round_trips == before + 1
            assert client.partition_size(0, 0) == len(records)

    def test_empty_partition_issues_no_rpush(self, client):
        client.put_partition(0, 4, [[1], [2]])
        store = client.store_for(0)
        before = store.stats.list_ops
        assert client.put_partition(0, 4, []) == 0
        assert store.stats.list_ops == before
        assert store.hget("partition:4:meta", "count") == 0
        fetched = client.get_partition(0, 4)  # the old records are gone
        assert len(fetched) == 0 and fetched.records() == []

    def test_kind_travels_with_the_partition(self, client):
        trees = [((-1,), (7,)), ((-1, 0), (5, 6))]
        client.put_partition(1, 2, encode_dataset("tree", trees).gather([0, 1]))
        fetched = client.get_partition(1, 2)
        assert fetched.kind == "tree"
        assert fetched.records() == trees
        assert client.get_item(1, 2, 0) == [1, 0, 7]  # the flat record, as stored


class TestAggregates:
    def test_total_round_trips_sums_nodes(self, client):
        client.put_partition(0, 0, [[1]])
        client.put_partition(1, 1, [[2]])
        assert client.total_round_trips() == sum(
            s.stats.round_trips for s in client.stores
        )

"""Unit tests for the Redis-like key-value store."""

import threading

import pytest

from repro.kvstore.store import KeyValueStore, StoreError, WrongTypeError


@pytest.fixture()
def store():
    return KeyValueStore(node_id=0)


class TestStrings:
    def test_set_get_roundtrip(self, store):
        store.set("k", b"value")
        assert store.get("k") == b"value"

    def test_get_missing_returns_none(self, store):
        assert store.get("nope") is None

    def test_set_overwrites(self, store):
        store.set("k", 1)
        store.set("k", 2)
        assert store.get("k") == 2

    def test_set_overwrites_other_types(self, store):
        store.rpush("k", 1)
        store.set("k", "now a string")
        assert store.get("k") == "now a string"

    def test_get_on_list_raises_wrongtype(self, store):
        store.rpush("k", 1)
        with pytest.raises(WrongTypeError):
            store.get("k")


class TestIncr:
    def test_incr_from_missing_starts_at_zero(self, store):
        assert store.incr("c") == 1

    def test_incr_accumulates(self, store):
        store.incr("c")
        store.incr("c")
        assert store.incr("c") == 3

    def test_incr_by_amount(self, store):
        assert store.incr("c", 10) == 10
        assert store.incr("c", -3) == 7

    def test_incr_non_integer_raises(self, store):
        store.set("c", "text")
        with pytest.raises(WrongTypeError):
            store.incr("c")

    def test_incr_is_atomic_under_threads(self, store):
        def bump():
            for _ in range(200):
                store.incr("c")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.get("c") == 1600


class TestLists:
    def test_rpush_returns_length(self, store):
        assert store.rpush("l", "a") == 1
        assert store.rpush("l", "b", "c") == 3

    def test_rpush_requires_values(self, store):
        with pytest.raises(StoreError):
            store.rpush("l")

    def test_lrange_full(self, store):
        store.rpush("l", 1, 2, 3)
        assert store.lrange("l") == [1, 2, 3]

    def test_lrange_inclusive_stop(self, store):
        store.rpush("l", *range(10))
        assert store.lrange("l", 2, 4) == [2, 3, 4]

    def test_lrange_negative_indices(self, store):
        store.rpush("l", *range(10))
        assert store.lrange("l", -3, -1) == [7, 8, 9]

    def test_lrange_missing_key_empty(self, store):
        assert store.lrange("l") == []

    def test_lindex(self, store):
        store.rpush("l", "a", "b", "c")
        assert store.lindex("l", 1) == "b"
        assert store.lindex("l", -1) == "c"
        assert store.lindex("l", 99) is None

    def test_llen(self, store):
        assert store.llen("l") == 0
        store.rpush("l", 1, 2)
        assert store.llen("l") == 2

    def test_list_op_on_string_raises(self, store):
        store.set("k", 1)
        with pytest.raises(WrongTypeError):
            store.rpush("k", 2)
        with pytest.raises(WrongTypeError):
            store.lrange("k")
        with pytest.raises(WrongTypeError):
            store.llen("k")


class TestHashes:
    def test_hset_hget_roundtrip(self, store):
        store.hset("h", "f", 42)
        assert store.hget("h", "f") == 42

    def test_hget_missing_field(self, store):
        store.hset("h", "f", 1)
        assert store.hget("h", "other") is None

    def test_hash_op_on_list_raises(self, store):
        store.rpush("k", 1)
        with pytest.raises(WrongTypeError):
            store.hset("k", "f", 1)


class TestLifecycle:
    def test_delete_counts_existing(self, store):
        store.set("a", 1)
        store.set("b", 2)
        assert store.delete("a", "b", "missing") == 2
        assert store.get("a") is None


class TestBatch:
    def test_execute_batch_results_in_order(self, store):
        results = store.execute_batch(
            [
                ("set", ("k", 1), {}),
                ("incr", ("c",), {}),
                ("get", ("k",), {}),
            ]
        )
        assert results == [None, 1, 1]

    def test_execute_batch_counts_one_round_trip(self, store):
        before = store.stats.round_trips
        store.execute_batch([("set", (f"k{i}", i), {}) for i in range(50)])
        assert store.stats.round_trips == before + 1

    def test_execute_batch_rejects_unknown_command(self, store):
        with pytest.raises(StoreError):
            store.execute_batch([("flush_the_toilet", (), {})])

    def test_execute_batch_rejects_private(self, store):
        with pytest.raises(StoreError):
            store.execute_batch([("_lock", (), {})])


class TestStats:
    def test_command_counters(self, store):
        store.set("a", 1)
        store.get("a")
        store.incr("c")
        store.rpush("l", 1)
        store.hset("h", "f", 1)
        assert store.stats.sets == 1
        assert store.stats.gets == 1
        assert store.stats.incrs == 1
        assert store.stats.list_ops == 1
        assert store.stats.hash_ops == 1

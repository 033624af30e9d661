"""Unit tests for client-side request pipelining."""

import pytest

from repro.kvstore.pipeline import Pipeline
from repro.kvstore.store import KeyValueStore, StoreError


@pytest.fixture()
def store():
    return KeyValueStore()


class TestQueueing:
    def test_commands_not_applied_until_execute(self, store):
        pipe = Pipeline(store, width=0)
        pipe.set("k", 1)
        assert store.get("k") is None
        pipe.execute()
        assert store.get("k") == 1

    def test_execute_returns_results_in_order(self, store):
        pipe = Pipeline(store, width=0)
        pipe.set("k", 5).incr("c").get("k")
        assert pipe.execute() == [None, 1, 5]

    def test_execute_clears_results(self, store):
        pipe = Pipeline(store, width=0)
        pipe.set("a", 1)
        assert len(pipe.execute()) == 1
        assert pipe.execute() == []

    def test_len_reflects_queue(self, store):
        pipe = Pipeline(store, width=0)
        pipe.set("a", 1).set("b", 2)
        assert len(pipe) == 2
        pipe.execute()
        assert len(pipe) == 0


class TestAutoFlush:
    def test_flushes_at_width(self, store):
        pipe = Pipeline(store, width=3)
        pipe.set("a", 1).set("b", 2)
        assert store.stats.sets == 0
        pipe.set("c", 3)  # hits the width, flushes
        assert store.stats.sets == 3
        assert store.get("c") == 3
        assert pipe.flushes == 1

    def test_batch_counts_one_round_trip(self, store):
        pipe = Pipeline(store, width=0)
        for i in range(100):
            pipe.set(f"k{i}", i)
        before = store.stats.round_trips
        pipe.execute()
        assert store.stats.round_trips == before + 1

    def test_pipelining_reduces_round_trips_vs_direct(self):
        direct = KeyValueStore()
        for i in range(64):
            direct.rpush("l", i)
        piped_store = KeyValueStore()
        pipe = Pipeline(piped_store, width=0)
        for i in range(64):
            pipe.rpush("l", i)
        pipe.execute()
        assert piped_store.stats.round_trips < direct.stats.round_trips
        assert piped_store.lrange("l") == direct.lrange("l")

    def test_negative_width_rejected(self, store):
        with pytest.raises(StoreError):
            Pipeline(store, width=-1)


class TestAutoFlushOrdering:
    """Regression pins: results must come back in enqueue order even
    when ``width`` splits a logical batch across several auto-flushes."""

    def test_results_span_auto_flush_boundary_in_order(self, store):
        pipe = Pipeline(store, width=2)
        pipe.set("k", 5).incr("c")  # auto-flush #1 fires here
        pipe.get("k").incr("c").get("c")  # auto-flush #2 mid-chain
        assert pipe.execute() == [None, 1, 5, 2, 2]
        assert pipe.flushes >= 2

    def test_width_one_flushes_every_command_in_order(self, store):
        pipe = Pipeline(store, width=1)
        for i in range(5):
            pipe.rpush("l", i)
        pipe.llen("l")
        assert pipe.execute() == [1, 2, 3, 4, 5, 5]
        assert pipe.flushes == 6
        assert store.lrange("l") == [0, 1, 2, 3, 4]

    def test_partial_tail_after_auto_flush_is_kept(self, store):
        pipe = Pipeline(store, width=3)
        pipe.set("a", 1).set("b", 2).set("c", 3)  # exactly one flush
        pipe.set("d", 4)  # below width: still queued
        assert store.get("d") is None
        assert len(pipe) == 1
        assert pipe.execute() == [None, None, None, None]
        assert store.get("d") == 4

    def test_interleaved_reads_see_earlier_flushed_writes(self, store):
        # A read queued after an auto-flush boundary must observe the
        # writes that boundary committed, and order must be preserved.
        pipe = Pipeline(store, width=2)
        results = (
            pipe.set("x", 10).set("y", 20).get("x").get("y").incr("x").execute()
        )
        assert results == [None, None, 10, 20, 11]


class TestContextManager:
    def test_flushes_on_clean_exit(self, store):
        with Pipeline(store, width=0) as pipe:
            pipe.set("k", 1)
        assert store.get("k") == 1

    def test_does_not_flush_on_exception(self, store):
        with pytest.raises(RuntimeError):
            with Pipeline(store, width=0) as pipe:
                pipe.set("k", 1)
                raise RuntimeError("boom")
        assert store.get("k") is None


class TestCommandSurface:
    def test_list_and_hash_commands(self, store):
        pipe = Pipeline(store, width=0)
        pipe.rpush("l", 1, 2).llen("l").lrange("l").lindex("l", 0)
        pipe.hset("h", "f", 9).hget("h", "f").delete("l")
        results = pipe.execute()
        assert results == [2, 2, [1, 2], 1, None, 9, 1]

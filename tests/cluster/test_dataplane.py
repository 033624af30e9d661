"""Tests for the shared-memory partition data plane."""

import errno
import glob
import logging
import os
import pickle
import subprocess
import sys
import textwrap
import weakref
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np
import pytest

from repro.cluster import dataplane
from repro.cluster.cluster import paper_cluster
from repro.cluster.dataplane import (
    SEGMENT_CACHE_LIMIT,
    SharedPartitionStore,
    fetch_partition,
)
from repro.cluster.engines import ProcessPoolEngine
from repro.workloads.base import Workload, WorkloadResult


class Records(list):
    """A record list that can be weakly referenced (plain lists cannot)."""


class SummingWorkload(Workload):
    name = "summing"

    def run(self, records: Sequence[int]) -> WorkloadResult:
        return WorkloadResult(work_units=float(len(records)), output=sum(records))

    def merge(self, partials):
        return sum(p.output for p in partials)


@pytest.fixture()
def store():
    with SharedPartitionStore() as s:
        yield s


class TestRoundTrip:
    def test_list_partition(self, store):
        part = [[1, 2, 3], [4], []]
        ref = store.put(part)
        assert fetch_partition(ref) == part

    def test_numpy_partition_goes_out_of_band(self, store):
        arr = np.arange(4096, dtype=np.int64)
        ref = store.put(arr)
        assert ref.buffer_lengths  # protocol-5 out-of-band buffer
        got = fetch_partition(ref)
        assert np.array_equal(got, arr)
        # The frame itself stays tiny: array bytes live out-of-band.
        assert ref.frame_bytes < 1024

    def test_mixed_batch(self, store):
        parts = [[1, 2], list(range(100)), [{"k": "v"}]]
        refs = store.put_many(parts)
        assert [fetch_partition(r) for r in refs] == parts


class TestCaching:
    def test_identity_hit_skips_serialization(self, store):
        part = [list(range(50))]
        r1 = store.put(part)
        r2 = store.put(part)
        assert r1 == r2
        assert store.stats.serializations == 1
        assert store.stats.identity_hits == 1

    def test_digest_hit_reuses_published_bytes(self, store):
        r1 = store.put([1, 2, 3])
        r2 = store.put([1, 2, 3])  # new object, same bytes
        assert r1 == r2
        assert store.stats.digest_hits == 1
        assert store.stats.segments_created == 1

    def test_distinct_partitions_get_distinct_refs(self, store):
        r1, r2 = store.put_many([[1], [2]])
        assert r1 != r2
        assert fetch_partition(r1) == [1] and fetch_partition(r2) == [2]

    def test_clear_cache_forces_reserialization(self, store):
        part = [1, 2]
        store.put(part)
        store.clear_cache()
        store.put(part)
        assert store.stats.serializations == 2
        assert store.stats.pinned_objects == 1

    def test_duplicates_replace_the_pin_instead_of_joining_it(self, store):
        """A byte-identical duplicate takes over the identity entry of
        its ref: repeat jobs that rebuild equal partitions must not pin
        every copy for the life of the segment."""
        first = [Records([1, 2, 3]), Records([4])]
        refs = store.put_many(first)
        watchers = [weakref.ref(p) for p in first]
        for _ in range(50):
            again = [Records([1, 2, 3]), Records([4])]
            assert store.put_many(again) == refs
            # Phase 2 of the same job hands the same objects in again.
            assert store.put_many(again) == refs
        assert store.stats.digest_hits == 100 and store.stats.identity_hits == 100
        assert store.stats.pinned_objects == len(store._by_identity) == 2
        assert store.stats.pinned_objects <= len(store._by_digest)
        del first
        assert all(w() is None for w in watchers)  # the old copies were let go
        assert [fetch_partition(r) for r in refs] == [[1, 2, 3], [4]]

    def test_eviction_drops_the_pins_of_the_segment(self):
        with SharedPartitionStore(cache_limit=1) as store:
            store.put([1, 2, 3])
            store.put([1, 2, 3])  # a duplicate takes the pin
            store.put([4] * 100)  # evicts the first segment
            assert store.stats.pinned_objects == len(store._pinned) == 1


class TestRefSize:
    def test_ref_bytes_constant_in_partition_size(self, store):
        small = [list(range(10))]
        large = [list(range(100_000))]
        r_small, r_large = store.put(small), store.put(large)
        b_small = len(pickle.dumps(r_small, protocol=5))
        b_large = len(pickle.dumps(r_large, protocol=5))
        # The ref payload is a name + three ints: growing the partition
        # 10,000x moves the task payload by a few digit widths at most.
        assert b_large <= b_small + 16
        eager_large = len(pickle.dumps(large, protocol=5))
        assert b_large < eager_large / 100

    def test_stats_track_ref_bytes(self, store):
        store.put_many([[1], [2], [3]])
        assert store.stats.refs_issued == 3
        assert 0 < store.stats.ref_bytes_total / store.stats.refs_issued < 512


class TestLifecycle:
    def test_close_unlinks_segments(self):
        store = SharedPartitionStore()
        ref = store.put(list(range(1000)))
        store.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.segment, create=False)

    def test_close_is_idempotent(self):
        store = SharedPartitionStore()
        store.put([1])
        store.close()
        store.close()
        assert store.closed

    def test_put_after_close_rejected(self):
        store = SharedPartitionStore()
        store.close()
        with pytest.raises(RuntimeError):
            store.put([1])


class TestCacheLimit:
    """Regression: the segment cache must stay bounded across many
    distinct jobs (the LRU unlinks old segments and purges their
    digest/identity entries)."""

    def test_lru_evicts_oldest_segments(self):
        with SharedPartitionStore(cache_limit=2) as store:
            refs = [store.put([("job", i)] * 50) for i in range(5)]
            assert store.live_segments <= 2
            assert store.stats.segments_created == 5
            assert store.stats.segments_evicted == 3
            # Evicted segments are really unlinked...
            for ref in refs[:3]:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=ref.segment, create=False)
            # ...while the newest survivors stay fetchable.
            assert fetch_partition(refs[4]) == [("job", 4)] * 50

    def test_eviction_purges_cache_entries(self):
        with SharedPartitionStore(cache_limit=1) as store:
            part = [1, 2, 3]
            store.put(part)
            store.put([4] * 100)  # evicts the first segment
            # Identity and digest entries into the dead segment are gone:
            # republishing must serialize again rather than hand out a
            # ref into unlinked memory.
            ref = store.put(part)
            assert store.stats.serializations == 3
            assert fetch_partition(ref) == part

    def test_hits_refresh_recency(self):
        with SharedPartitionStore(cache_limit=2) as store:
            hot = [0] * 50
            r_hot = store.put(hot)
            store.put([1] * 50)
            store.put(hot)  # identity hit — hot segment becomes MRU
            store.put([2] * 50)  # evicts the [1] segment, not hot's
            assert fetch_partition(r_hot) == hot

    def test_current_batch_is_pinned(self):
        # One oversized batch may exceed the limit transiently; its own
        # refs must never be evicted out from under the caller.
        with SharedPartitionStore(cache_limit=1) as store:
            refs = store.put_many([[i] * 30 for i in range(4)])
            for i, ref in enumerate(refs):
                assert fetch_partition(ref) == [i] * 30

    def test_bounded_by_default(self):
        with SharedPartitionStore() as store:
            for i in range(SEGMENT_CACHE_LIMIT + 2):
                store.put([i] * 10)
            assert store.live_segments == SEGMENT_CACHE_LIMIT
            assert store.stats.segments_evicted == 2

    def test_worker_attachments_are_bounded(self, monkeypatch):
        # A worker keeps at most SEGMENT_CACHE_LIMIT mappings, least
        # recently used first out, so pages of segments the parent has
        # unlinked are not pinned for the worker's lifetime. A mapping
        # that a fetched object still views cannot close and stays.
        monkeypatch.setattr(dataplane, "_ATTACHED", {})
        extra = 4
        with SharedPartitionStore(cache_limit=SEGMENT_CACHE_LIMIT + extra + 1) as store:
            viewed_ref = store.put(np.arange(512))
            viewed = fetch_partition(viewed_ref)  # zero-copy view into its mapping
            refs = [store.put([i] * 10) for i in range(SEGMENT_CACHE_LIMIT + extra)]
            assert [fetch_partition(r) for r in refs] == [[i] * 10 for i in range(len(refs))]
            attached = list(dataplane._ATTACHED)
            assert attached == [viewed_ref.segment] + [r.segment for r in refs[extra:]]
            assert np.array_equal(viewed, np.arange(512))
            del viewed
            assert fetch_partition(refs[-1]) == [len(refs) - 1] * 10
            assert list(dataplane._ATTACHED) == [r.segment for r in refs[extra:]]
            # A segment released by the worker attaches again on demand.
            assert fetch_partition(refs[0]) == [0] * 10
            assert len(dataplane._ATTACHED) == SEGMENT_CACHE_LIMIT

    def test_rejects_non_positive_limit(self):
        with pytest.raises(ValueError):
            SharedPartitionStore(cache_limit=0)

    def test_engine_bounds_segments_across_jobs(self):
        with ProcessPoolEngine(paper_cluster(2, seed=0), max_workers=2) as engine:
            engine._store = SharedPartitionStore(cache_limit=3)
            for i in range(8):
                parts = [[i * 100 + j] * 40 for j in range(2)]
                job = engine.run_job(SummingWorkload(), parts)
                assert job.merged_output == sum(map(sum, parts))
                assert engine._store.live_segments <= 3
            assert engine.dataplane_stats.segments_evicted >= 5


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def cluster(self):
        return paper_cluster(2, seed=0)

    def test_shm_and_eager_agree(self, cluster, monkeypatch, caplog):
        """The eager path is reached the way a host reaches it: the
        store cannot create a segment (``/dev/shm`` full)."""
        parts = [[1, 2, 3], [4, 5], list(range(50))]
        segments_before = set(glob.glob("/dev/shm/psm_*"))
        with ProcessPoolEngine(cluster, max_workers=2) as shm_engine:
            shm_job = shm_engine.run_job(SummingWorkload(), parts)
            assert shm_engine.dataplane_stats.refs_issued == 3

        real = shared_memory.SharedMemory
        creations = []

        def no_space(*args, create=False, **kwargs):
            if not create:
                return real(*args, **kwargs)
            creations.append(kwargs.get("size"))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(shared_memory, "SharedMemory", no_space)
        with caplog.at_level(logging.DEBUG, logger="repro.cluster.engines"):
            with ProcessPoolEngine(cluster, max_workers=2) as eager:
                eager_job = eager.run_job(SummingWorkload(), parts)
                # The next job stays eager and does not try the store again.
                again = eager.run_job(SummingWorkload(), parts)
                assert eager.dataplane_stats.refs_issued == 0
        assert len(creations) == 1
        fallbacks = [m for m in caplog.messages if m.startswith("engine.dataplane.fallback")]
        assert len(fallbacks) == 1 and "error=OSError" in fallbacks[0]
        assert (
            shm_job.merged_output
            == eager_job.merged_output
            == again.merged_output
            == sum(map(sum, parts))
        )
        assert set(glob.glob("/dev/shm/psm_*")) == segments_before

    def test_repeat_jobs_never_reserialize(self, cluster):
        parts = [[1] * 200, [2] * 200]
        with ProcessPoolEngine(cluster, max_workers=2) as engine:
            engine.run_job(SummingWorkload(), parts)
            engine.run_job(SummingWorkload(), parts)
            engine.profile_all_nodes(SummingWorkload(), parts[0])
            stats = engine.dataplane_stats
        assert stats.serializations == 2
        assert stats.identity_hits == 3
        assert stats.segments_created == 1

    def test_shutdown_unlinks_and_next_job_rebuilds(self, cluster):
        engine = ProcessPoolEngine(cluster, max_workers=1)
        engine.run_job(SummingWorkload(), [[1, 2]])
        seg = next(iter(engine._store._segments))
        engine.shutdown()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=seg, create=False)
        job = engine.run_job(SummingWorkload(), [[3, 4]])
        assert job.merged_output == 7
        engine.shutdown()

    def test_interpreter_exit_without_shutdown_is_silent(self):
        """Satellite check: a script that never calls shutdown() must not
        leak /dev/shm segments or print teardown noise (ImportError /
        TypeError / resource_tracker KeyError) at exit."""
        script = textwrap.dedent(
            """
            from tests.cluster.test_dataplane import SummingWorkload
            from repro.cluster.cluster import paper_cluster
            from repro.cluster.engines import ProcessPoolEngine

            engine = ProcessPoolEngine(paper_cluster(2, seed=0), max_workers=2)
            job = engine.run_job(SummingWorkload(), [[1, 2], [3]])
            assert job.merged_output == 6
            # no shutdown(): atexit + __del__ must clean up quietly
            """
        )
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for noise in ("Traceback", "ImportError", "TypeError", "KeyError", "leaked"):
            assert noise not in proc.stderr, proc.stderr

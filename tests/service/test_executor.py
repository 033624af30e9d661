"""ScenarioExecutor under concurrency: per-key builds, the build process.

The executor's lock guards only two dicts of futures (dataset key and
scenario key); a key's first job builds it outside the lock, and the
dataset half of the build runs in a forked build process. These tests
hold builds open, fail them and kill the build process, on the
simulated engine so that only the build process is a child; one kills
the process engine's run pool instead.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

import pytest

import repro.obs as obs
import repro.service.executor as executor_module
from repro.core.framework import ParetoPartitioner
from repro.service.executor import build_executor
from repro.service.jobs import JobSpec, JobState
from repro.service.manager import JobManager, ServiceConfig

from tests.service.test_manager import wait_for

WARM = JobSpec(workload="apriori", dataset="rcv1", size_scale=0.05, support=0.2)
COLD = JobSpec(workload="apriori", dataset="rcv1", size_scale=0.05, support=0.2, seed=3)


@pytest.fixture()
def executor():
    ex = build_executor("simulated")
    yield ex
    ex.close()


@pytest.fixture()
def threads():
    with ThreadPoolExecutor(max_workers=8) as pool:
        yield pool


class _CountingFuture(Future):
    """A key future that counts the callers that waited on it."""

    waits = 0
    _waits_lock = threading.Lock()

    def result(self, timeout=None):
        with _CountingFuture._waits_lock:
            _CountingFuture.waits += 1
        return super().result(timeout)


def _killed_build(key, trace):
    """Build-pool task that dies the way a killed build process does."""
    os.kill(os.getpid(), signal.SIGKILL)


def test_warm_key_runs_while_another_key_builds(executor, threads, monkeypatch, lock_watch):
    executor.run(WARM)
    entered, release = threading.Event(), threading.Event()
    original = ParetoPartitioner.prepare

    def held_prepare(self, *args, **kwargs):
        entered.set()
        assert release.wait(timeout=30.0)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ParetoPartitioner, "prepare", held_prepare)
    cold = threads.submit(executor.run, COLD)
    try:
        assert entered.wait(timeout=30.0)
        # At most 20 s: a warm job must not wait on another key's build.
        assert threads.submit(executor.run, WARM).result(timeout=20.0)["plan_sizes"]
    finally:
        release.set()
    assert cold.result(timeout=30.0)["plan_sizes"]
    assert executor.scenarios_prepared == 2


def test_concurrent_first_jobs_of_one_key_build_once(
    executor, threads, monkeypatch, lock_watch
):
    builds, prepares = [], []
    build, prepare = executor._build, ParetoPartitioner.prepare
    monkeypatch.setattr(executor, "_build", lambda key: builds.append(key) or build(key))
    monkeypatch.setattr(
        ParetoPartitioner,
        "prepare",
        lambda self, *a, **k: prepares.append(1) or prepare(self, *a, **k),
    )
    start = threading.Barrier(6)

    def first_job():
        start.wait(timeout=10.0)
        return executor.run(WARM)

    results = [f.result(timeout=60.0) for f in [threads.submit(first_job) for _ in range(6)]]
    assert len(builds) == 1 and len(prepares) == 1
    assert executor.scenarios_prepared == 1
    assert all(r == results[0] for r in results)


def test_failed_build_fails_every_waiter_and_is_retried(
    executor, threads, monkeypatch, lock_watch
):
    entered, release, builds = threading.Event(), threading.Event(), []
    build = executor._build

    def held_build(key):
        builds.append(key)
        entered.set()
        assert release.wait(timeout=30.0)
        return build(key)

    monkeypatch.setattr(executor, "_build", held_build)
    monkeypatch.setattr(executor_module, "Future", _CountingFuture)
    monkeypatch.setattr(_CountingFuture, "waits", 0)
    bad = JobSpec(workload="apriori", dataset="no-such-dataset")
    jobs = [threads.submit(executor.run, bad)]
    assert entered.wait(timeout=30.0)
    jobs += [threads.submit(executor.run, bad) for _ in range(4)]
    # Every waiter waits on the key's future before the build ends.
    assert wait_for(lambda: _CountingFuture.waits == 4)
    release.set()
    wait(jobs, timeout=30.0)
    errors = [job.exception() for job in jobs]
    assert all(isinstance(e, ValueError) for e in errors), errors
    assert len({str(e) for e in errors}) == 1
    assert "unknown dataset 'no-such-dataset'" in str(errors[0])
    assert len(builds) == 1

    with pytest.raises(ValueError, match="no-such-dataset"):
        executor.run(bad)
    assert len(builds) == 2  # the failed build was forgotten, not cached
    assert executor.scenarios_prepared == 0


def test_killed_build_process_fails_the_job_and_is_replaced(monkeypatch, lock_watch):
    before = {p.pid for p in multiprocessing.active_children()}
    executor = build_executor("simulated")
    manager = JobManager(executor, ServiceConfig(concurrency=1, max_queue_depth=4))
    try:
        first_pool = executor._build_pool
        monkeypatch.setattr(executor_module, "_build_task", _killed_build)
        killed = manager.submit(WARM)
        assert wait_for(lambda: killed.done, timeout_s=30.0)
        assert killed.state is JobState.FAILED
        assert "build process died while building dataset" in killed.error
        assert "rcv1" in killed.error

        monkeypatch.undo()
        retried = manager.submit(WARM)
        assert wait_for(lambda: retried.done, timeout_s=60.0)
        assert retried.state is JobState.SUCCEEDED, retried.error
        assert executor._build_pool is not first_pool
    finally:
        manager.shutdown(timeout_s=30.0)
    left = [p for p in multiprocessing.active_children() if p.pid not in before]
    assert left == []


def test_killed_run_pool_job_is_rerun_on_a_fresh_pool(lock_watch):
    # The workers die between jobs: the next job finds the pool broken
    # before any result and reruns on a fresh pool instead of failing.
    before = {p.pid for p in multiprocessing.active_children()}
    executor = build_executor("process", max_workers=2)
    manager = JobManager(executor, ServiceConfig(concurrency=1, max_queue_depth=4))
    try:
        first = manager.submit(WARM)
        assert wait_for(lambda: first.done, timeout_s=60.0)
        assert first.state is JobState.SUCCEEDED, first.error
        workers = list(executor.engine._pool._processes.values())
        for process in workers:
            os.kill(process.pid, signal.SIGKILL)
        # Polled, not joined: the pool's own manager thread reaps them too.
        assert wait_for(lambda: all(p.exitcode is not None for p in workers), timeout_s=10.0)

        rerun = manager.submit(WARM)
        assert wait_for(lambda: rerun.done, timeout_s=60.0)
        assert rerun.state is JobState.SUCCEEDED, rerun.error
        assert rerun.result["plan_sizes"] == first.result["plan_sizes"]
        assert executor.engine.pools_created == 2
    finally:
        manager.shutdown(timeout_s=30.0)
    left = [p for p in multiprocessing.active_children() if p.pid not in before]
    assert left == []


def test_traced_job_adopts_the_build_process_spans(executor):
    obs.enable()
    executor.run(WARM)
    spans = obs.get_tracer().finished_spans()
    (prepare,) = [s for s in spans if s["name"] == "service.prepare"]
    (stratify,) = [s for s in spans if s["name"] == "stage.stratify"]
    sketches = [s for s in spans if s["name"] == "stage.sketch"]
    assert stratify["parent_id"] == prepare["span_id"]
    assert sketches and all(s["parent_id"] == stratify["span_id"] for s in sketches)
    # Built in the build process, adopted by the service process.
    assert stratify["pid"] != os.getpid() == prepare["pid"]


def test_traced_cold_job_splits_generation_from_encoding(executor):
    # A cold job's prepare time splits into generating the dataset,
    # encoding it and stratifying it, each a span under service.prepare.
    obs.enable()
    executor.run(COLD)
    spans = obs.get_tracer().finished_spans()
    (prepare,) = [s for s in spans if s["name"] == "service.prepare"]
    (generate,) = [s for s in spans if s["name"] == "stage.generate"]
    (encode,) = [s for s in spans if s["name"] == "stage.encode"]
    (stratify,) = [s for s in spans if s["name"] == "stage.stratify"]
    for span in (generate, encode, stratify):
        assert span["parent_id"] == prepare["span_id"]
        assert span["pid"] != os.getpid()
    assert generate["attrs"]["dataset"] == COLD.dataset
    assert generate["attrs"]["scale"] == COLD.size_scale
    assert generate["attrs"]["items"] == encode["attrs"]["items"] == stratify["attrs"]["items"] > 0

"""Unit tests for the execution engines."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np
import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.dataplane import SharedPartitionStore
from repro.cluster.engines import ProcessPoolEngine, SimulatedEngine
from repro.kvstore.codec import encode_dataset
from repro.service.executor import ScenarioExecutor
from repro.workloads.base import Workload, WorkloadResult


class CountingWorkload(Workload):
    """Work = number of records; output = their sum (picklable)."""

    name = "counting"

    def run(self, records: Sequence[int]) -> WorkloadResult:
        return WorkloadResult(
            work_units=float(len(records)), output=sum(records), stats={"n": len(records)}
        )

    def merge(self, partials):
        return sum(p.output for p in partials)


class SlowWorkload(CountingWorkload):
    """Counting plus a worker-side sleep, to hold tasks in flight."""

    name = "slow-counting"

    def run(self, records: Sequence[int]) -> WorkloadResult:
        time.sleep(0.05)
        return super().run(records)


class LoggingWorkload(CountingWorkload):
    """Counting that appends each run's record count to a file, so a
    test sees every run the pool workers made, measured or not."""

    name = "logging"

    def __init__(self, path: str):
        self.path = path

    def run(self, records: Sequence[int]) -> WorkloadResult:
        with open(self.path, "a") as fh:
            fh.write(f"{len(records)}\n")
        return super().run(records)


class OtherLoggingWorkload(LoggingWorkload):
    name = "logging-other"


class BurningWorkload(CountingWorkload):
    """Counting plus a busy loop of ``spin`` steps per record: CPU time
    in proportion to the partition's size."""

    name = "burning"

    def __init__(self, spin: int = 2000):
        self.spin = spin

    def run(self, records: Sequence[int]) -> WorkloadResult:
        acc = 0
        for i in range(self.spin * len(records)):
            acc += i & 1
        return super().run(records)


class EchoWorkload(CountingWorkload):
    """Returns the partition the worker received, as it arrived."""

    name = "echo"

    def run(self, records) -> WorkloadResult:
        return WorkloadResult(work_units=float(len(records)), output=records)

    def merge(self, partials):
        return [p.output for p in partials]


def logged_runs(path) -> list[int]:
    return sorted(int(line) for line in path.read_text().split())


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster(4, seed=0)


@pytest.fixture(scope="module")
def engine(cluster):
    return SimulatedEngine(cluster, unit_rate=10.0)


class TestSimulatedEngine:
    def test_runtime_formula(self, cluster, engine):
        # node 3 (speed 1): overhead 0.5 + 20/10 = 2.5 s.
        runtime = engine.profile(CountingWorkload(), list(range(20)), 3)
        assert runtime == pytest.approx(0.5 + 2.0)

    def test_faster_node_shorter_runtime(self, engine):
        records = list(range(40))
        t_fast = engine.profile(CountingWorkload(), records, 0)
        t_slow = engine.profile(CountingWorkload(), records, 3)
        assert t_fast == pytest.approx(t_slow / 4.0)

    def test_profile_all_nodes_matches_profile(self, engine):
        records = list(range(12))
        batched = engine.profile_all_nodes(CountingWorkload(), records)
        singles = [
            engine.profile(CountingWorkload(), records, i) for i in range(4)
        ]
        assert batched == pytest.approx(singles)

    def test_invalid_unit_rate(self, cluster):
        with pytest.raises(ValueError):
            SimulatedEngine(cluster, unit_rate=0.0)

    def test_deterministic(self, engine):
        parts = [[1, 2], [3], [4, 5, 6], [7]]
        r1 = engine.run_job(CountingWorkload(), parts)
        r2 = engine.run_job(CountingWorkload(), parts)
        assert r1.makespan_s == r2.makespan_s
        assert r1.total_dirty_energy_j == r2.total_dirty_energy_j


class TestJobExecution:
    def test_default_assignment_round_robins(self, engine):
        parts = [[1]] * 6
        job = engine.run_job(CountingWorkload(), parts)
        assert [t.node_id for t in job.tasks] == [0, 1, 2, 3, 0, 1]

    def test_makespan_is_max_node_busy_time(self, engine):
        parts = [[1] * 10, [1] * 10]
        job = engine.run_job(CountingWorkload(), parts, assignment=[0, 3])
        # One partition per node, so a node's busy time is its task's.
        assert job.makespan_s == pytest.approx(max(t.runtime_s for t in job.tasks))

    def test_multiple_partitions_on_node_serialize(self, engine):
        parts = [[1] * 10, [1] * 10]
        job = engine.run_job(CountingWorkload(), parts, assignment=[2, 2])
        t0, t1 = job.tasks
        assert t1.start_s == pytest.approx(t0.end_s)
        assert job.makespan_s == pytest.approx(t0.runtime_s + t1.runtime_s)

    def test_merged_output(self, engine):
        parts = [[1, 2], [3, 4]]
        job = engine.run_job(CountingWorkload(), parts, assignment=[0, 1])
        assert job.merged_output == 10

    def test_energy_totals_sum_tasks(self, engine):
        parts = [[1] * 5, [1] * 5, [1] * 5]
        job = engine.run_job(CountingWorkload(), parts)
        assert job.total_dirty_energy_j == pytest.approx(
            sum(t.dirty_energy_j for t in job.tasks)
        )
        assert job.total_energy_j == pytest.approx(
            sum(t.energy_j for t in job.tasks)
        )

    def test_energy_positive_for_busy_nodes(self, engine):
        job = engine.run_job(CountingWorkload(), [[1] * 20], assignment=[0])
        assert job.total_energy_j > 0

    def test_assignment_validation(self, engine):
        with pytest.raises(ValueError):
            engine.run_job(CountingWorkload(), [[1]], assignment=[9])
        with pytest.raises(ValueError):
            engine.run_job(CountingWorkload(), [[1], [2]], assignment=[0])
        with pytest.raises(ValueError):
            engine.run_job(CountingWorkload(), [], assignment=[])


class TestEnergyWindows:
    def test_sequential_tasks_account_later_trace_windows(self):
        """A node's second task runs later in its green trace, so its
        dirty energy must reflect that window — here the trace turns
        green after 2 s, so only the first task pays."""
        import numpy as np

        from repro.cluster.cluster import Cluster
        from repro.cluster.node import Node, NodeType
        from repro.energy.traces import EnergyTrace

        trace = EnergyTrace(
            watts=np.array([0.0, 0.0, 1000.0, 1000.0, 1000.0, 1000.0]),
            resolution_s=1.0,
        )
        node = Node(
            node_id=0,
            node_type=NodeType(type_id=1, speed_factor=1.0, cores=1),  # 155 W
            trace=trace,
            task_overhead_s=0.0,
        )
        cluster = Cluster(nodes=[node])
        engine = SimulatedEngine(cluster, unit_rate=10.0)
        # Two tasks of 20 work units = 2 s each, back to back.
        job = engine.run_job(CountingWorkload(), [[1] * 20, [1] * 20], assignment=[0, 0])
        first, second = job.tasks
        assert first.dirty_energy_j == pytest.approx(155.0 * 2.0)
        assert second.dirty_energy_j == pytest.approx(0.0)

        # A start offset shifts the billing window: starting at t=2 both
        # tasks run in the green part of the trace.
        shifted = engine.run_job(
            CountingWorkload(), [[1] * 20, [1] * 20], assignment=[0, 0], start_offset_s=2.0
        )
        assert shifted.total_dirty_energy_j == pytest.approx(0.0)
        assert shifted.makespan_s == pytest.approx(job.makespan_s)

    def test_negative_offset_rejected(self):
        from repro.cluster.cluster import paper_cluster

        engine = SimulatedEngine(paper_cluster(2, seed=0), unit_rate=10.0)
        with pytest.raises(ValueError):
            engine.run_job(CountingWorkload(), [[1]], start_offset_s=-1.0)


class TestProcessPoolEngine:
    def test_end_to_end(self, cluster):
        engine = ProcessPoolEngine(cluster, max_workers=2)
        parts = [[1, 2, 3], [4, 5]]
        job = engine.run_job(CountingWorkload(), parts, assignment=[0, 1])
        assert job.merged_output == 15
        assert job.makespan_s > 0
        assert all(t.runtime_s > 0 for t in job.tasks)

    def test_speed_scaling_applied(self, cluster):
        engine = ProcessPoolEngine(cluster, max_workers=1)
        records = list(range(100))
        # The same work on a 4x node must be reported faster than on the
        # 1x node by roughly the speed ratio (wall time is similar).
        t_fast = engine.profile(CountingWorkload(), records, 0)
        t_slow = engine.profile(CountingWorkload(), records, 3)
        assert t_slow > t_fast
        engine.shutdown()

    def test_pool_persists_across_jobs_and_probes(self, cluster):
        engine = ProcessPoolEngine(cluster, max_workers=1)
        assert engine.pools_created == 0  # lazy: nothing until first work
        engine.run_job(CountingWorkload(), [[1, 2], [3]], assignment=[0, 1])
        engine.profile(CountingWorkload(), [1, 2, 3], 2)
        engine.profile_all_nodes(CountingWorkload(), [1, 2])
        engine.run_job(CountingWorkload(), [[4]], assignment=[3])
        assert engine.pools_created == 1
        engine.shutdown()

    def test_shutdown_idempotent_and_pool_rebuilds(self, cluster):
        engine = ProcessPoolEngine(cluster, max_workers=1)
        engine.profile(CountingWorkload(), [1], 0)
        engine.shutdown()
        engine.shutdown()  # second call is a no-op
        # Work after shutdown transparently builds a fresh pool.
        job = engine.run_job(CountingWorkload(), [[1, 2]], assignment=[0])
        assert job.merged_output == 3
        assert engine.pools_created == 2
        engine.shutdown()

    def test_first_call_of_a_kind_warms_every_worker(self, cluster, tmp_path):
        # A worker's first run of a kind is slow, so the first call a pool
        # makes for a kind runs its smallest partition once per worker,
        # unmeasured; later calls, and other kinds' calls, do not repeat it
        # until the pool is rebuilt.
        log = tmp_path / "runs"
        engine = ProcessPoolEngine(cluster, max_workers=2)
        engine.profile_all_nodes(LoggingWorkload(str(log)), [1, 2, 3])
        assert logged_runs(log) == [3, 3, 3]
        engine.run_job(LoggingWorkload(str(log)), [[1, 2], [3]], assignment=[0, 1])
        assert logged_runs(log) == [1, 2, 3, 3, 3]
        log.unlink()
        engine.run_job(OtherLoggingWorkload(str(log)), [[1, 2], [3]], assignment=[0, 1])
        assert logged_runs(log) == [1, 1, 1, 2]
        engine.shutdown()
        log.unlink()
        engine.profile_all_nodes(LoggingWorkload(str(log)), [1, 2])
        assert logged_runs(log) == [2, 2, 2]
        engine.shutdown()

    def test_shutdown_waits_for_inflight_job(self, cluster):
        # shutdown(wait=True) racing an active run_job must drain the
        # job before tearing the pool down: the job completes with a
        # correct result instead of failing on a shut-down executor.
        import threading

        engine = ProcessPoolEngine(cluster, max_workers=2)
        done: dict[str, object] = {}

        def run():
            parts = [list(range(200)) for _ in range(8)]
            done["job"] = engine.run_job(
                SlowWorkload(), parts, assignment=[i % 4 for i in range(8)]
            )

        worker = threading.Thread(target=run)
        worker.start()
        deadline = time.monotonic() + 10.0
        while engine._inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert engine._inflight > 0, "job never became in-flight"
        engine.shutdown(wait=True)
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        job = done["job"]
        assert job.merged_output == sum(range(200)) * 8
        assert engine._pool is None

    def test_concurrent_shutdown_callers(self, cluster):
        # Two threads racing shutdown(): exactly-once teardown, no error.
        import threading

        engine = ProcessPoolEngine(cluster, max_workers=1)
        engine.profile(CountingWorkload(), [1, 2], 0)
        errors: list[BaseException] = []

        def call():
            try:
                engine.shutdown(wait=True)
            except BaseException as exc:  # repro: noqa[SILENT-EXCEPT] — not swallowed: collected per thread and asserted empty after join
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert errors == []
        assert engine._pool is None

    def test_concurrent_run_jobs_share_pool(self, cluster):
        # Two submitting threads must both complete against the one
        # persistent pool (lifecycle lock serialises setup).
        import threading

        engine = ProcessPoolEngine(cluster, max_workers=2)
        results: dict[int, int] = {}

        def run(idx):
            parts = [[idx, idx + 1], [idx + 2]]
            job = engine.run_job(CountingWorkload(), parts, assignment=[0, 1])
            results[idx] = job.merged_output

        threads = [threading.Thread(target=run, args=(i,)) for i in (10, 20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert results == {10: 3 * 10 + 3, 20: 3 * 20 + 3}
        assert engine.pools_created == 1
        engine.shutdown()

    def test_context_manager_releases_pool(self, cluster):
        with ProcessPoolEngine(cluster, max_workers=1) as engine:
            job = engine.run_job(CountingWorkload(), [[1], [2]], assignment=[0, 1])
            assert job.merged_output == 3
        assert engine._pool is None


def raw_seconds(cluster, node_id: int, runtime_s: float) -> float:
    """Undo a pool engine's pricing: ``runtime = (overhead + raw) / speed``."""
    node = cluster[node_id]
    return runtime_s * node.speed_factor - node.task_overhead_s


class TestCpuBilling:
    """A pool task is billed the CPU time its worker spent in
    ``workload.run``, so a wait (a sleep here; a busy neighbour or a
    core shared with the parent in production) costs nothing."""

    def test_a_sleeping_task_bills_no_wall_time(self, cluster):
        with ProcessPoolEngine(cluster, max_workers=1) as engine:
            (task,) = engine.run_job(SlowWorkload(), [[1, 2, 3]], assignment=[0]).tasks
            probe = engine.profile_samples(SlowWorkload(), [[1, 2, 3]])[0][0]
        assert task.output == 6
        assert raw_seconds(cluster, 0, task.runtime_s) < 0.005
        assert raw_seconds(cluster, 0, probe) < 0.005


class TestProbeLadder:
    def test_simulated_ladder_is_the_per_sample_probes(self, engine):
        samples = [list(range(n)) for n in (40, 5, 17)]
        ladder = engine.profile_samples(CountingWorkload(), samples)
        assert ladder == [engine.profile_all_nodes(CountingWorkload(), s) for s in samples]

    def test_one_measure_per_ladder_in_sample_order(self, cluster, monkeypatch):
        sizes = (10, 300, 60)
        with ProcessPoolEngine(cluster, max_workers=2) as engine:
            calls = []
            measure = engine._measure

            def spy(workload, partitions):
                calls.append(len(partitions))
                return measure(workload, partitions)

            monkeypatch.setattr(engine, "_measure", spy)
            times = engine.profile_samples(BurningWorkload(), [[1] * n for n in sizes])
        assert calls == [3]
        assert len(times) == 3 and all(len(t) == cluster.num_nodes for t in times)
        # Sample order, not dispatch order: per-sample CPU follows size.
        raw = [raw_seconds(cluster, 0, t[0]) for t in times]
        assert raw[1] > raw[2] > raw[0]

    def test_samples_dispatch_largest_first(self, cluster, tmp_path):
        # One worker runs tasks in dispatch order: the warm-up run of the
        # smallest sample, then the ladder largest first.
        log = tmp_path / "runs"
        with ProcessPoolEngine(cluster, max_workers=1) as engine:
            engine.profile_samples(LoggingWorkload(str(log)), [[1] * n for n in (2, 7, 4)])
        assert [int(line) for line in log.read_text().split()] == [2, 7, 4, 2]


class TestTransport:
    """A partition reaches a pool worker in its task tuple, whatever
    entry point sends it; no shared-memory segment is ever made."""

    def test_no_entry_point_makes_a_shared_memory_segment(self, cluster, monkeypatch):
        made = []
        real = shared_memory.SharedMemory

        class Spy(real):
            def __init__(self, *args, **kwargs):
                made.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", Spy)
        staged = encode_dataset("set", [[1, 2], [3], [4, 5, 6]])
        with ProcessPoolEngine(cluster, max_workers=2) as engine:
            job = engine.run_job(CountingWorkload(), [[1, 2, 3], [4, 5]], assignment=[0, 1])
            engine.run_job(CountingWorkload(), [[1, 2, 3], [4, 5]], assignment=[0, 1])
            engine.run_job(EchoWorkload(), [staged.gather([0, 2]), staged.gather([1])])
            engine.profile_samples(CountingWorkload(), [[1] * n for n in (3, 9, 5)])
            engine.profile_all_nodes(CountingWorkload(), [1, 2])
        assert job.merged_output == 15
        assert made == []

    def test_the_names_the_frozen_benchmark_reads_stay(self, cluster):
        # ROADMAP 5(c): the ruler imports SharedPartitionStore (and wraps
        # put_many only where a class defines it), reads five counters off
        # dataplane_stats and live_segments off dataplane_audit().
        assert "put_many" not in vars(SharedPartitionStore)
        engine = ProcessPoolEngine(cluster, max_workers=1)
        stats = dataclasses.asdict(engine.dataplane_stats)
        read = ("refs_issued", "serializations", "identity_hits", "digest_hits", "shared_bytes")
        assert stats == dict.fromkeys(read, 0)
        assert ScenarioExecutor(engine).dataplane_audit()["live_segments"] == 0

    def test_interpreter_exit_without_shutdown_is_silent(self):
        """A script that never calls shutdown() must not print teardown
        noise (ImportError / TypeError / KeyError) at exit."""
        script = textwrap.dedent(
            """
            from tests.cluster.test_engines import CountingWorkload
            from repro.cluster.cluster import paper_cluster
            from repro.cluster.engines import ProcessPoolEngine

            engine = ProcessPoolEngine(paper_cluster(2, seed=0), max_workers=2)
            job = engine.run_job(CountingWorkload(), [[1, 2], [3]])
            assert job.merged_output == 6
            # no shutdown(): __del__ must clean up quietly
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


class BrokenPool:
    """An executor whose worker died: every map raises."""

    def __init__(self):
        self.shut_down = []

    def map(self, *args, **kwargs):
        raise BrokenProcessPool("a worker died")

    def shutdown(self, wait=True):
        self.shut_down.append(wait)


class TestBrokenPool:
    def test_a_broken_pool_discards_only_itself(self, cluster, monkeypatch):
        """A call whose pool broke while another thread already runs on
        a fresh one tears down its own pool, not the engine's live one."""
        with ProcessPoolEngine(cluster, max_workers=1) as engine:
            engine.run_job(CountingWorkload(), [[1, 2]], assignment=[0])
            live = engine._pool
            broken = BrokenPool()
            monkeypatch.setattr(engine, "_ensure_pool", lambda: broken)
            with pytest.raises(BrokenProcessPool):
                engine.run_job(CountingWorkload(), [[3]], assignment=[0])
            monkeypatch.undo()
            assert broken.shut_down == [False]
            assert engine._pool is live
            assert engine.pools_created == 1
            job = engine.run_job(CountingWorkload(), [[3, 4]], assignment=[0])
            assert job.merged_output == 7
            assert engine.pools_created == 1

    def test_the_broken_current_pool_is_replaced_by_the_next_job(self, cluster):
        with ProcessPoolEngine(cluster, max_workers=1) as engine:
            engine.run_job(CountingWorkload(), [[1]], assignment=[0])
            for process in list(engine._pool._processes.values()):
                process.kill()
                process.join(timeout=10.0)
            with pytest.raises(BrokenProcessPool):
                engine.run_job(CountingWorkload(), [[2]], assignment=[0])
            assert engine._pool is None
            job = engine.run_job(CountingWorkload(), [[2, 3]], assignment=[0])
            assert job.merged_output == 5
            assert engine.pools_created == 2

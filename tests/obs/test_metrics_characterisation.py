"""Golden characterisation of every ``repro_*`` series a traced run feeds.

Recorded at the commit where each instrumented module still updated its
own series by hand, before the registry became a fold of the span
stream; the fold had to pass it unmodified. Four fixed traced runs,
each on a fresh registry:

- ``simulated`` — a :class:`SimulatedEngine` two-phase job (the second
  phase billed after the first one's makespan);
- ``worksteal`` — a :class:`WorkStealingScheduler` job;
- ``process_pool`` — a :class:`ProcessPoolEngine` job run twice on one
  pool;
- ``service`` — an in-process :class:`JobManager` over a
  :class:`SimulatedEngine`: accepted jobs, ``tenant_cap``,
  ``queue_full`` and ``draining`` rejections, a cancel and a TTL
  eviction.

Series names, label sets, counter and gauge values, histogram bounds
and sample counts must equal ``golden/metrics_snapshot.json``. A few
series are measured rather than computed (see ``SCENARIOS``): the
service's queue-wait and run latencies, and every task time and energy
of the pool run, which prices measured CPU time. For a histogram of
those only bounds and counts are pinned; a measured counter is checked
against the jobs' own task fields instead (``"measured"`` in the
golden).

Run this module as a script to re-record the golden.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from typing import Sequence

import pytest

import repro.obs as obs
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ProcessPoolEngine, SimulatedEngine
from repro.cluster.workstealing import WorkStealingScheduler
from repro.service.jobs import JobSpec, JobState
from repro.service.manager import JobManager, ServiceConfig
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.compression.distributed import CompressionWorkload

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics_snapshot.json"

PARTS = [[1] * 40, [2] * 30, [3] * 20, [4] * 10, [5] * 8]
STEAL_PARTS = [[1] * 10, [2] * 9, [3] * 14, [4] * 11]
POOL_PARTS = [
    [[j + 1, j + 2, j + 5] for j in range(i * 20, i * 20 + 20)] for i in range(8)
]
ENERGY = ("repro_energy_joules_total", "repro_dirty_energy_joules_total")
TTL_S = 0.3


class WeightWorkload(Workload):
    """Work = Σ records: every simulated runtime is exact arithmetic."""

    name = "weight"

    def run(self, records: Sequence[int]) -> WorkloadResult:
        return WorkloadResult(work_units=float(sum(records)), output=sum(records))


def _cluster():
    return paper_cluster(4, seed=0)


def run_simulated() -> list:
    engine = SimulatedEngine(_cluster(), unit_rate=10.0)
    first = engine.run_job(WeightWorkload(), PARTS)
    second = engine.run_job(
        WeightWorkload(), PARTS[:3], start_offset_s=first.makespan_s
    )
    return [first, second]


def run_worksteal() -> list:
    engine = WorkStealingScheduler(_cluster(), unit_rate=100.0, chunk_size=4)
    return [engine.run_job(WeightWorkload(), STEAL_PARTS)]


def run_process_pool() -> list:
    with ProcessPoolEngine(_cluster(), max_workers=2) as engine:
        return [
            engine.run_job(CompressionWorkload(), POOL_PARTS),
            engine.run_job(CompressionWorkload(), POOL_PARTS),
        ]


class _GatedExecutor:
    """Runs a simulated job per spec once the test opens the gate."""

    def __init__(self):
        self.engine = SimulatedEngine(_cluster(), unit_rate=10.0)
        self.gate = threading.Event()
        self.jobs: list = []

    def run(self, spec):
        if not self.gate.wait(timeout=20.0):
            raise TimeoutError("gate never opened")
        job = self.engine.run_job(WeightWorkload(), PARTS)
        self.jobs.append(job)
        return {
            "makespan_s": job.makespan_s,
            "total_dirty_energy_j": job.total_dirty_energy_j,
        }

    def close(self):
        pass


def _wait(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


def run_service() -> list:
    executor = _GatedExecutor()
    manager = JobManager(
        executor,
        ServiceConfig(
            max_queue_depth=2, concurrency=1, per_tenant_inflight=2, result_ttl_s=TTL_S
        ),
    )
    first = manager.submit(JobSpec(tenant="t1"))
    _wait(lambda: first.state is JobState.RUNNING)
    second = manager.submit(JobSpec(tenant="t1"))  # queued, depth 1
    capped = manager.submit(JobSpec(tenant="t1"))  # t1 already has two in flight
    doomed = manager.submit(JobSpec(tenant="t2"))  # queued, depth 2
    full = manager.submit(JobSpec(tenant="t3"))  # queue full
    assert second.state is JobState.QUEUED and doomed.state is JobState.QUEUED
    assert (capped.reject_reason, full.reject_reason) == ("tenant_cap", "queue_full")
    assert manager.cancel(doomed.job_id)
    executor.gate.set()
    _wait(lambda: second.state is JobState.SUCCEEDED)
    assert manager.drain(timeout_s=10.0)
    late = manager.submit(JobSpec(tenant="t1"))
    assert late.reject_reason == "draining"
    time.sleep(TTL_S + 0.2)
    assert manager.get(first.job_id) is None  # every terminal record evicted
    manager.shutdown(timeout_s=1.0)
    return executor.jobs


#: name -> (run, the series whose values are measured)
SCENARIOS = {
    "simulated": (run_simulated, ()),
    "worksteal": (run_worksteal, ()),
    "process_pool": (
        run_process_pool,
        ("repro_task_runtime_seconds", "repro_task_queue_wait_seconds", *ENERGY),
    ),
    "service": (
        run_service, ("repro_service_queue_wait_seconds", "repro_service_run_seconds")
    ),
}


def series_name(key: str) -> str:
    return key.split("{", 1)[0]


def measured_counters(jobs: list) -> dict[str, float]:
    """The energy counters as the registry sums them: task by task, in
    job order, starting from 0.0."""
    out: dict[str, float] = {}
    for job in jobs:
        for task in job.tasks:
            node = f'{{node="{int(task.node_id)}"}}'
            for name, value in zip(ENERGY, (task.energy_j, task.dirty_energy_j)):
                out[name + node] = out.get(name + node, 0.0) + float(value)
    return out


def normalise(snapshot: dict, measured: Sequence[str]) -> dict:
    """What the golden pins of one snapshot (see the module docstring)."""
    out: dict = {}
    for key, entry in snapshot.items():
        loose = series_name(key) in measured
        if entry["type"] != "histogram":
            value = "measured" if loose else entry["value"]
            out[key] = {"type": entry["type"], "value": value}
            continue
        row = {"type": "histogram", "bounds": list(entry["buckets"]), "count": entry["count"]}
        if not loose:
            row["buckets"] = entry["buckets"]
            row["sum"] = entry["sum"]
        out[key] = row
    return out


def traced_snapshot(name: str) -> tuple[dict, list]:
    run, _ = SCENARIOS[name]
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        jobs = run()
        return obs.metrics_snapshot(), jobs
    finally:
        obs.disable()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metrics_snapshot_unchanged(name, golden):
    snapshot, jobs = traced_snapshot(name)
    got = normalise(snapshot, SCENARIOS[name][1])
    want = golden[name]
    assert sorted(got) == sorted(want)
    for key, row in want.items():
        if row.get("value") == "measured":
            assert got[key]["value"] == "measured"
            assert snapshot[key]["value"] == measured_counters(jobs)[key], key
        elif row["type"] == "histogram":
            assert {k: v for k, v in got[key].items() if k != "sum"} == {
                k: v for k, v in row.items() if k != "sum"
            }, key
            if "sum" in row:
                assert got[key]["sum"] == pytest.approx(row["sum"], rel=1e-12), key
        else:
            assert got[key]["type"] == row["type"], key
            assert got[key]["value"] == pytest.approx(row["value"], rel=1e-12), key


if __name__ == "__main__":  # record the golden (run against the parent)
    recorded = {
        name: normalise(traced_snapshot(name)[0], measured)
        for name, (_, measured) in SCENARIOS.items()
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

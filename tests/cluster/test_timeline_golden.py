"""Golden characterisation of the simulated job timelines.

Written against the code *before* the four ``run_job`` loops were
collapsed into measure → schedule → account; the refactor had to pass
it unmodified. Every literal below was printed by the parent commit
for the fixed cluster / partitions / chunk size named here, so a
change to placement order, steal order, the energy window a task is
billed against, merge order or the emitted telemetry shows up as a
diff against a number, not as a feeling.

Timeline fields (start, runtime, work units, energy, makespan) are
plain IEEE arithmetic on small constants and are compared exactly.
Dirty energy integrates a green trace generated through numpy
transcendental functions, so it is compared to 1e-9 relative — far
below any accounting change, above a libm ulp.
"""

from typing import Sequence

import pytest

import repro.obs as obs
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.cluster.workstealing import StealEvent, WorkStealingScheduler
from repro.workloads.base import Workload, WorkloadResult


class WeightWorkload(Workload):
    """Payload-sensitive toy: work = Σ records. The default ``merge``
    (list of outputs, in task order) pins the merge order."""

    name = "weight"

    def run(self, records: Sequence[int]) -> WorkloadResult:
        return WorkloadResult(
            work_units=float(sum(records)), output=sum(records), stats={"n": len(records)}
        )


PARTS = [[1] * 40, [2] * 30, [3] * 20, [4] * 10, [5] * 8]
STEAL_PARTS = [[1] * 10, [2] * 9, [3] * 14, [4] * 11]


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster(4, seed=0)


def task_rows(job):
    """``(partition_id, node_id, start_s, runtime_s, work_units,
    energy_j)`` per task, in task order."""
    return [
        (t.partition_id, t.node_id, t.start_s, t.runtime_s, t.work_units, t.energy_j)
        for t in job.tasks
    ]


def dirty(job):
    return [t.dirty_energy_j for t in job.tasks]


def check_job(job, rows, dirty_j, makespan, merged):
    assert task_rows(job) == rows
    assert dirty(job) == pytest.approx(dirty_j, rel=1e-9, abs=1e-9)
    assert job.makespan_s == makespan
    assert job.merged_output == merged
    # Totals are the left-to-right sums of the per-task fields.
    assert job.total_energy_j == sum(t.energy_j for t in job.tasks)
    assert job.total_dirty_energy_j == sum(t.dirty_energy_j for t in job.tasks)


# -- SimulatedEngine ----------------------------------------------------------

SIM_ROWS = [
    (0, 0, 0.0, 1.125, 40.0, 495.0),
    (1, 1, 0.0, 2.1666666666666665, 60.0, 747.5),
    (2, 2, 0.0, 3.25, 60.0, 812.5),
    (3, 3, 0.0, 4.5, 40.0, 697.5),
    (4, 0, 1.125, 1.125, 40.0, 495.0),
]
SIM_DIRTY = [311.874640591133, 357.59180914853937, 217.18584234317694, 0.0, 311.874640591133]
SIM_DIRTY_OFFSET = [165.76025076056695, 61.39577987403613, 0.0, 0.0, 165.76025076056695]


class TestSimulatedGolden:
    def test_default_assignment(self, cluster):
        job = SimulatedEngine(cluster, unit_rate=10.0).run_job(WeightWorkload(), PARTS)
        check_job(job, SIM_ROWS, SIM_DIRTY, 4.5, [40, 60, 60, 40, 40])
        assert [t.stats for t in job.tasks] == [{"n": n} for n in (40, 30, 20, 10, 8)]

    def test_offset_moves_only_the_energy_window(self, cluster):
        job = SimulatedEngine(cluster, unit_rate=10.0).run_job(
            WeightWorkload(), PARTS, start_offset_s=3 * 3600.0
        )
        check_job(job, SIM_ROWS, SIM_DIRTY_OFFSET, 4.5, [40, 60, 60, 40, 40])


# -- WorkStealingScheduler ----------------------------------------------------

STEAL_ROWS = [
    (0, 0, 0.0, 0.01125, 4.0, 4.95),
    (1, 1, 0.0, 0.028333333333333335, 8.0, 9.775),
    (2, 2, 0.0, 0.0625, 12.0, 15.625),
    (3, 3, 0.0, 0.165, 16.0, 25.575000000000003),
    (4, 0, 0.01125, 0.01125, 4.0, 4.95),
    (5, 0, 0.0225, 0.00625, 2.0, 2.75),
    (6, 1, 0.028333333333333335, 0.028333333333333335, 8.0, 9.775),
    (7, 0, 0.028749999999999998, 0.06825, 6.0, 30.03),  # stolen from 2
    (8, 1, 0.05666666666666667, 0.008333333333333333, 2.0, 2.875),
    (9, 2, 0.0625, 0.0625, 12.0, 15.625),
    (10, 1, 0.065, 0.09466666666666668, 12.0, 32.660000000000004),  # stolen from 3
    (11, 0, 0.097, 0.08525, 12.0, 37.510000000000005),  # stolen from 2
    (12, 2, 0.125, 0.1365, 16.0, 34.125),  # stolen from 3
]
STEAL_DIRTY = [
    3.1187464059113297,
    4.676200581173208,
    4.176650814291865,
    0.0,
    3.1187464059113297,
    1.7326368921729607,
    4.676200581173208,
    18.920394862528735,
    1.3753531121097664,
    4.176650814291865,
    15.624011353566953,
    23.633167209239193,
    9.121805378413432,
]
STEAL_MAKESPAN = 0.2615
STEAL_MERGED = [4, 8, 12, 16, 4, 2, 8, 6, 2, 12, 12, 12, 16]
STEAL_EVENTS = [
    (0.028749999999999998, 0, 2, 2),
    (0.065, 1, 3, 3),
    (0.097, 0, 2, 4),
    (0.125, 2, 3, 4),
]
STEAL_SPANS = [
    ("worksteal.steal", 0.052000000000000005, {"thief": 0, "victim": 2, "chunk_items": 2}),
    ("worksteal.steal", 0.053000000000000005, {"thief": 1, "victim": 3, "chunk_items": 3}),
    ("worksteal.steal", 0.054000000000000006, {"thief": 0, "victim": 2, "chunk_items": 4}),
    ("worksteal.steal", 0.054000000000000006, {"thief": 2, "victim": 3, "chunk_items": 4}),
    *[("task.execute",)] * 13,
    (
        "engine.run_job",
        None,
        {
            "engine": "WorkStealingScheduler",
            "workload": "weight",
            "partitions": 4,
            "nodes": 4,
            "chunk_size": 4,
            "makespan_s": 0.2615,
            "total_energy_j": 226.22500000000002,
            "total_dirty_energy_j": 94.35056441078383,
            "steals": 4,
        },
    ),
]
STEAL_COUNTERS = {
    'repro_dirty_energy_joules_total{node="0"}': 50.52369177576355,
    'repro_dirty_energy_joules_total{node="1"}': 26.351765628023134,
    'repro_dirty_energy_joules_total{node="2"}': 17.475107006997163,
    'repro_dirty_energy_joules_total{node="3"}': 0.0,
    'repro_energy_joules_total{node="0"}': 80.19,
    'repro_energy_joules_total{node="1"}': 55.08500000000001,
    'repro_energy_joules_total{node="2"}': 65.375,
    'repro_energy_joules_total{node="3"}': 25.575000000000003,
    'repro_jobs_total{engine="WorkStealingScheduler"}': 1.0,
    'repro_tasks_total{node="0"}': 5.0,
    'repro_tasks_total{node="1"}': 4.0,
    'repro_tasks_total{node="2"}': 3.0,
    'repro_tasks_total{node="3"}': 1.0,
    "repro_worksteal_items_stolen_total": 13.0,
    'repro_worksteal_steals_total{thief="0"}': 2.0,
    'repro_worksteal_steals_total{thief="1"}': 1.0,
    'repro_worksteal_steals_total{thief="2"}': 1.0,
}


def steal_scheduler(cluster):
    return WorkStealingScheduler(cluster, unit_rate=100.0, chunk_size=4)


class TestStealGolden:
    def test_timeline_and_events(self, cluster):
        ws = steal_scheduler(cluster)
        job = ws.run_job(WeightWorkload(), STEAL_PARTS)
        check_job(job, STEAL_ROWS, STEAL_DIRTY, STEAL_MAKESPAN, STEAL_MERGED)
        assert ws.events == [StealEvent(*e) for e in STEAL_EVENTS]
        assert ws.num_steals == len(STEAL_EVENTS)


# -- telemetry ----------------------------------------------------------------


@pytest.fixture
def traced():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


TASK_KEYS = ("partition_id", "node_id", "work_units", "runtime_s", "energy_j", "dirty_energy_j")


def check_spans(spans, job, golden, offsets):
    """Span order, names, exact simulated durations and attrs.

    ``golden`` lists ``(name, duration_s, attrs)`` in emission order.
    ``task.execute`` rows are one per task and are checked against the
    job's tasks (already pinned to literals by the timeline tests).
    The live ``engine.run_job`` span closes last and has a wall-clock
    duration, so only its attrs are compared. ``offsets`` are the
    simulated start times of the scheduler's own spans, recovered
    relative to the first task (which starts at t=0).
    """
    assert [s["name"] for s in spans] == [g[0] for g in golden]
    job_span = spans[-1]
    tasks = iter(job.tasks)
    t0 = min(s["start_s"] for s in spans if s["name"] == "task.execute")
    seen_offsets = []
    for span, want in zip(spans, golden):
        attrs = span["attrs"]
        if span is job_span:
            assert attrs == pytest.approx(want[2], rel=1e-9)
            continue
        assert span["parent_id"] == job_span["span_id"]
        if span["name"] == "task.execute":
            task = next(tasks)
            assert span["duration_s"] == task.runtime_s
            assert tuple(attrs[k] for k in TASK_KEYS) == tuple(
                getattr(task, k) for k in TASK_KEYS
            )
            assert attrs["workload"] == "weight"
            assert span["start_s"] - t0 == pytest.approx(task.start_s, abs=1e-4)
        else:
            assert (span["duration_s"], attrs) == want[1:]
            seen_offsets.append(span["start_s"] - t0)
    assert seen_offsets == pytest.approx(offsets, abs=1e-4)


def counters(snapshot):
    return {k: v["value"] for k, v in snapshot.items() if v["type"] == "counter"}


class TestTelemetryGolden:
    def test_steal_spans_and_counters(self, cluster, traced):
        job = steal_scheduler(cluster).run_job(WeightWorkload(), STEAL_PARTS)
        check_spans(
            obs.get_tracer().finished_spans(),
            job,
            STEAL_SPANS,
            offsets=[e[0] for e in STEAL_EVENTS],
        )
        assert counters(obs.metrics_snapshot()) == pytest.approx(STEAL_COUNTERS, rel=1e-9)

    def test_simulated_engine_emits_only_tasks_and_the_job(self, cluster, traced):
        job = SimulatedEngine(cluster, unit_rate=10.0).run_job(WeightWorkload(), PARTS)
        golden = [("task.execute",)] * 5 + [
            (
                "engine.run_job",
                None,
                {
                    "engine": "SimulatedEngine",
                    "workload": "weight",
                    "partitions": 5,
                    "nodes": 4,
                    "makespan_s": 4.5,
                    "total_energy_j": 3247.5,
                    "total_dirty_energy_j": 1198.5269326739822,
                },
            )
        ]
        check_spans(obs.get_tracer().finished_spans(), job, golden, offsets=[])

"""Profile reuse: a job-confirmed profile is returned without probing.

Each engine keeps the :class:`ProfilingReport` s its jobs confirmed,
one per ``(workload type, pickled workload, dataset kind, N)``. A
prepare of a stored key runs no probe; a job outside
``CONFIRM_BAND`` of its plan's prediction drops the entry.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np
import pytest

import repro.obs as obs
from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ProcessPoolEngine, SimulatedEngine
from repro.core import heterogeneity
from repro.core.framework import ParetoPartitioner
from repro.core.heterogeneity import (
    CONFIRM_BAND,
    STORE_CAP,
    LinearTimeModel,
    ProfilingReport,
    prediction_error,
    profile_key,
    stored_report,
)
from repro.core.strategies import HET_AWARE
from repro.data.datasets import load_dataset
from repro.kvstore.codec import encode_dataset
from repro.stratify.stratifier import Stratification
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.fpm.apriori import AprioriWorkload


class CountWorkload(Workload):
    """Work = ``weight`` × records: on the simulated engine a job runs
    exactly as the probes predicted, so every job confirms."""

    name = "count"

    def __init__(self, weight: float = 1.0):
        self.weight = weight

    def run(self, records: Sequence) -> WorkloadResult:
        return WorkloadResult(work_units=self.weight * len(records), output=len(records))


def dataset(n: int, kind: str = "set", offset: int = 0):
    """An ``n``-record encoding with its (one-stratum) stratification."""
    staged = encode_dataset(kind, [[offset + i] for i in range(n)])
    strata = Stratification(labels=np.zeros(n, dtype=np.int64), strata=[np.arange(n)])
    return staged, strata


def simulated():
    return SimulatedEngine(paper_cluster(4, seed=0), unit_rate=50.0)


class ProbeSpy:
    """Counts ``profile_samples`` calls on one engine."""

    def __init__(self, engine, monkeypatch):
        self.calls = 0
        real = engine.profile_samples

        def spy(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "profile_samples", spy)


def prepare_and_run(engine, workload, n=400, kind="set", offset=0, run_with=None):
    staged, strata = dataset(n, kind, offset)
    pp = ParetoPartitioner(engine, kind=kind, num_strata=1, seed=offset)
    prepared = pp.prepare(staged, workload, stratification=strata)
    report = pp.execute(staged, run_with or workload, HET_AWARE, prepared=prepared)
    return prepared, report


def store_of(engine) -> dict:
    with heterogeneity._STORE_LOCK:
        return dict(heterogeneity._STORE.get(engine, {}))


class TestReuse:
    def test_a_confirmed_key_is_not_probed_again(self, monkeypatch):
        """(a) prepare → execute → prepare of another dataset with the
        same key: no probe, and the plan still covers every item."""
        engine = simulated()
        spy = ProbeSpy(engine, monkeypatch)
        first, _ = prepare_and_run(engine, CountWorkload())
        assert spy.calls == 1
        staged, strata = dataset(400, offset=10_000)
        pp = ParetoPartitioner(engine, kind="set", num_strata=1, seed=7)
        second = pp.prepare(staged, CountWorkload(), stratification=strata)
        assert spy.calls == 1
        assert second.profiling is first.profiling
        report = pp.execute(staged, CountWorkload(), HET_AWARE, prepared=second)
        assert int(report.plan.sizes.sum()) == 400
        assert sum(report.merged_output) == 400

    def test_a_job_outside_the_band_evicts(self, monkeypatch):
        """(b) A job that runs twice as long as predicted drops the
        entry, and the next prepare runs the ladder."""
        engine = simulated()
        spy = ProbeSpy(engine, monkeypatch)
        prepared, _ = prepare_and_run(engine, CountWorkload())
        assert store_of(engine) == {prepared.profiling.key: prepared.profiling}
        monkeypatch.setattr(engine, "unit_rate", engine.unit_rate / 2)
        prepare_and_run(engine, CountWorkload(), offset=1)  # a hit, run slow
        assert spy.calls == 1
        assert store_of(engine) == {}
        prepare_and_run(engine, CountWorkload(), offset=2)
        assert spy.calls == 2

    @pytest.mark.parametrize(
        "change",
        [
            dict(workload=CountWorkload(weight=2.0)),
            dict(kind="graph"),
            dict(n=401),
            dict(engine=True),
        ],
        ids=["support", "kind", "n", "engine"],
    )
    def test_a_different_key_misses(self, change, monkeypatch):
        """(c) Workload parameters, dataset kind, N and engine are all
        part of what a profile is reused for."""
        engine = simulated()
        prepare_and_run(engine, CountWorkload())
        other = simulated() if change.get("engine") else engine
        spy = ProbeSpy(other, monkeypatch)
        staged, strata = dataset(change.get("n", 400), change.get("kind", "set"), 5)
        pp = ParetoPartitioner(other, kind=staged.kind, num_strata=1)
        pp.prepare(staged, change.get("workload", CountWorkload()), stratification=strata)
        assert spy.calls == 1

    def test_prepares_with_no_job_between_both_probe(self, monkeypatch):
        """(d) Only a job stores a profile: a re-prepare before any job
        ran (a warm set-up's retry) runs the ladder again."""
        engine = simulated()
        spy = ProbeSpy(engine, monkeypatch)
        staged, strata = dataset(400)
        pp = ParetoPartitioner(engine, kind="set", num_strata=1)
        first = pp.prepare(staged, CountWorkload(), stratification=strata)
        second = pp.prepare(staged, CountWorkload(), stratification=strata)
        assert spy.calls == 2
        assert first.profiling is not second.profiling
        assert store_of(engine) == {}

    def test_a_run_of_another_workload_leaves_the_store_alone(self):
        """(e) A prepared input run with a different workload confirms
        and evicts nothing, whatever its error."""
        engine = simulated()
        prepare_and_run(engine, CountWorkload(), run_with=CountWorkload(weight=3.0))
        assert store_of(engine) == {}
        prepared, _ = prepare_and_run(engine, CountWorkload())
        stored = store_of(engine)
        prepare_and_run(engine, CountWorkload(), offset=1, run_with=CountWorkload(weight=3.0))
        assert store_of(engine) == stored == {prepared.profiling.key: prepared.profiling}

    def test_the_store_is_capped_and_dies_with_its_engine(self):
        """(f) At most ``STORE_CAP`` keys per engine, oldest out first;
        the store holds no reference that keeps its engine alive."""
        engine = simulated()
        keys = []
        for n in range(100, 100 + STORE_CAP + 5):
            prepared, _ = prepare_and_run(engine, CountWorkload(), n=n)
            keys.append(prepared.profiling.key)
            assert len(store_of(engine)) <= STORE_CAP
        assert list(store_of(engine)) == keys[-STORE_CAP:]
        alive = len(heterogeneity._STORE)
        ref = weakref.ref(engine)
        del engine, prepared
        gc.collect()
        assert ref() is None
        assert len(heterogeneity._STORE) < alive


class TestConfirmation:
    def test_the_error_is_phase_one_time_over_prediction(self):
        engine = simulated()
        prepared, report = prepare_and_run(engine, CountWorkload())
        predicted = sum(
            m.predict(int(x)) for m, x in zip(prepared.profiling.models, report.plan.sizes)
        )
        measured = sum(t.runtime_s for t in report.job.tasks)
        assert measured == pytest.approx(predicted, rel=1e-9)
        assert stored_report(engine, prepared.profiling.key) is prepared.profiling

    def test_empty_partitions_are_not_scored(self):
        """An idle node's over-predicted overhead does not cancel a
        loaded node's under-predicted work."""
        report = ProfilingReport(
            models=[LinearTimeModel(0.01, 0.05), LinearTimeModel(0.02, 0.1)],
            sample_sizes=[10, 20],
            times=[[0.15, 0.25], [0.3, 0.5]],
        )
        loaded = report.models[0].predict(100)
        # Node 0 runs 20 % over; idle node 1 runs half its intercept.
        error = prediction_error(report, [100, 0], [1.2 * loaded, 0.05])
        assert error == pytest.approx(0.2)
        assert prediction_error(report, [0, 0], [0.05, 0.1]) is None

    def test_the_band_edge(self):
        """Just inside the band confirms, just outside does not."""
        for factor, kept in ((1 + 0.9 * CONFIRM_BAND, True), (1 + 1.1 * CONFIRM_BAND, False)):
            engine = simulated()
            staged, strata = dataset(400)
            pp = ParetoPartitioner(engine, kind="set", num_strata=1)
            prepared = pp.prepare(staged, CountWorkload(), stratification=strata)
            # Slow the work part so the loaded partitions run ``factor``
            # × their prediction.
            plan = pp.plan(prepared, HET_AWARE)
            loaded = [(m, n, int(x)) for m, n, x in zip(
                prepared.profiling.models, engine.cluster, plan.sizes) if x > 0]
            overheads = sum(n.task_overhead_s / n.speed_factor for _, n, _ in loaded)
            predicted = sum(m.predict(x) for m, _, x in loaded)
            engine.unit_rate = 50.0 * (predicted - overheads) / (factor * predicted - overheads)
            pp.execute(staged, CountWorkload(), HET_AWARE, prepared=prepared)
            assert (stored_report(engine, prepared.profiling.key) is not None) is kept

    def test_an_unpicklable_workload_has_no_key(self):
        class Local(CountWorkload):
            pass

        staged, _ = dataset(10)
        assert profile_key(Local(), staged) is None
        engine = simulated()
        prepared, _ = prepare_and_run(engine, Local())
        assert prepared.profiling.key is None
        assert store_of(engine) == {}


class TestReportIsFrozen:
    def test_assigning_a_field_raises(self):
        engine = simulated()
        prepared, _ = prepare_and_run(engine, CountWorkload())
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.profiling.models = []
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.profiling.key = None
        assert isinstance(prepared.profiling, ProfilingReport)


@pytest.fixture
def traced():
    obs.disable()
    obs.reset()
    obs.enable()
    yield lambda: obs.get_tracer().finished_spans()
    obs.disable()
    obs.reset()


class TestSpans:
    def test_profile_says_reused_and_execute_how_wrong(self, traced):
        engine = simulated()
        prepare_and_run(engine, CountWorkload())
        prepare_and_run(engine, CountWorkload(), offset=1)
        spans = traced()
        profiles = [s["attrs"] for s in spans if s["name"] == "stage.profile"]
        assert [p["reused"] for p in profiles] == [False, True]
        executes = [s["attrs"] for s in spans if s["name"] == "stage.execute"]
        assert [e["profile_confirmed"] for e in executes] == [True, True]
        assert all(abs(e["prediction_error"]) < 1e-9 for e in executes)

    def test_two_phase_scores_the_local_phase_only(self, traced):
        ds = load_dataset("rcv1", size_scale=0.1, seed=0)
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=5e4)
        pp = ParetoPartitioner(engine, kind=ds.kind, num_strata=6, seed=0)
        workload = AprioriWorkload(min_support=0.15, max_len=2)
        prepared = pp.prepare(ds.items, workload)
        report = pp.execute_fpm(ds.items, workload, HET_AWARE, prepared=prepared)
        by_phase = {
            s["attrs"]["phase"]: s["attrs"] for s in traced() if s["name"] == "stage.execute"
        }
        local = by_phase["local-mine"]
        p = len(report.plan.sizes)
        runtimes = [t.runtime_s for t in report.job.tasks[:p]]
        assert local["prediction_error"] == pytest.approx(
            prediction_error(prepared.profiling, report.plan.sizes, runtimes)
        )
        assert local["profile_confirmed"] is (abs(local["prediction_error"]) <= CONFIRM_BAND)
        assert "prediction_error" not in by_phase["candidate-count"]


def test_two_threads_on_one_pool_leave_a_consistent_store(lock_watch):
    """(g) Two threads prepare and run one key on one pool engine: no
    error, and the store holds at most that key, mapped to a report of
    that key that one of them made."""

    def rounds(engine, offset: int) -> list[ProfilingReport]:
        made = []
        for round_ in range(3):
            prepared, report = prepare_and_run(
                engine, CountWorkload(), n=200, offset=offset + round_
            )
            assert int(report.plan.sizes.sum()) == 200
            made.append(prepared.profiling)
        return made

    with ProcessPoolEngine(paper_cluster(2, seed=0), max_workers=2) as engine:
        with ThreadPoolExecutor(max_workers=2) as threads:
            futures = [threads.submit(rounds, engine, k * 100) for k in range(2)]
            made = [r for f in futures for r in f.result()]
        stored = store_of(engine)
    (key,) = {r.key for r in made}
    assert set(stored) <= {key}
    if stored:
        assert any(stored[key] is r for r in made)


def test_many_threads_many_keys_keep_the_cap_exact():
    """Eight threads (more than the cores) confirm 40 distinct keys on
    one engine with a short switch interval: the store ends with exactly
    ``STORE_CAP`` entries, each under its own report's key. An eviction
    racing an insert would leave fewer, or raise mid-iteration."""
    engine = simulated()
    sizes = list(range(100, 140))

    def confirm_sizes(chunk: list[int]) -> None:
        for n in chunk:
            prepare_and_run(engine, CountWorkload(), n=n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as threads:
            futures = [threads.submit(confirm_sizes, sizes[k::8]) for k in range(8)]
            for f in futures:
                f.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    stored = store_of(engine)
    assert len(stored) == STORE_CAP
    assert all(report.key == key for key, report in stored.items())

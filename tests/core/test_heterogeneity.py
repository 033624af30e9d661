"""Unit tests for the progressive-sampling heterogeneity estimator."""

import warnings
from typing import Sequence

import numpy as np
import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.core.heterogeneity import (
    PAPER_FRACTIONS,
    SMALL_DATA_FRACTIONS,
    LinearTimeModel,
    PolynomialTimeModel,
    ProgressiveSampler,
    auto_fractions,
)
from repro.core.framework import ParetoPartitioner
from repro.core.optimizer import ParetoOptimizer
from repro.data import load_dataset
from repro.kvstore.codec import encode_dataset
from repro.stratify.stratifier import Stratification
from repro.workloads.catalog import WORKLOADS
from repro.workloads.base import Workload, WorkloadResult


class LinearWorkload(Workload):
    """Work exactly equals record count: the engine's runtime becomes
    a perfectly linear function of sample size."""

    name = "linear"

    def run(self, records: Sequence) -> WorkloadResult:
        return WorkloadResult(work_units=float(len(records)), output=None)


class QuadraticWorkload(Workload):
    name = "quadratic"

    def run(self, records: Sequence) -> WorkloadResult:
        return WorkloadResult(work_units=float(len(records)) ** 2 / 10.0, output=None)


def flat_stratification(n):
    return Stratification(labels=np.zeros(n, dtype=np.int64), strata=[np.arange(n)])


class TestLinearTimeModel:
    def test_fit_recovers_line(self):
        model = LinearTimeModel.fit([10, 20, 40], [1.5, 2.5, 4.5])
        assert model.slope == pytest.approx(0.1)
        assert model.intercept == pytest.approx(0.5)

    def test_predict(self):
        model = LinearTimeModel(slope=0.1, intercept=1.0)
        assert model.predict(100) == pytest.approx(11.0)

    def test_predict_clamps_at_zero(self):
        model = LinearTimeModel(slope=0.0, intercept=0.0)
        assert model.predict(10) == 0.0

    def test_negative_slope_clamped_in_fit(self):
        model = LinearTimeModel.fit([10, 20, 30], [5.0, 4.0, 3.0])
        assert model.slope == 0.0
        assert model.intercept == pytest.approx(4.0)  # falls back to mean

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            LinearTimeModel(slope=-1.0, intercept=0.0)
        with pytest.raises(ValueError):
            LinearTimeModel(slope=1.0, intercept=0.0).predict(-5)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            LinearTimeModel.fit([1], [1.0])

    def test_one_distinct_size_fits_the_flat_model(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = LinearTimeModel.fit([1, 1], [0.2, 0.4])
        assert model == LinearTimeModel(slope=0.0, intercept=pytest.approx(0.3))


class TestPolynomialTimeModel:
    def test_fit_quadratic(self):
        x = [1, 2, 3, 4, 5]
        y = [xi**2 for xi in x]
        model = PolynomialTimeModel.fit(x, y, degree=2)
        assert model.predict(6) == pytest.approx(36.0, rel=1e-6)
        assert model.degree == 2

    def test_needs_more_points_than_degree(self):
        with pytest.raises(ValueError):
            PolynomialTimeModel.fit([1, 2], [1.0, 2.0], degree=2)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            PolynomialTimeModel.fit([1, 2, 3], [1, 2, 3], degree=0)

    def test_overfits_with_few_samples(self):
        """The paper's Section III-D argument: high-degree fits on few
        progressive samples extrapolate badly versus a linear fit."""
        rng = np.random.default_rng(0)
        x = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        true = 0.05 * x + 1.0
        y = true + rng.normal(0, 0.3, size=x.size)
        linear = LinearTimeModel.fit(x, y)
        poly = PolynomialTimeModel.fit(x, y, degree=4)
        target = 0.05 * 2000.0 + 1.0
        assert abs(linear.predict(2000.0) - target) < abs(
            poly.predict(2000.0) - target
        )


class TestAutoFractions:
    def test_large_data_uses_paper_schedule(self):
        assert auto_fractions(100_000) == PAPER_FRACTIONS

    def test_small_data_uses_wide_schedule(self):
        assert auto_fractions(1000) == SMALL_DATA_FRACTIONS

    def test_invalid(self):
        with pytest.raises(ValueError):
            auto_fractions(0)


class TestProgressiveSampler:
    @pytest.fixture(scope="class")
    def engine(self):
        return SimulatedEngine(paper_cluster(4, seed=0), unit_rate=100.0)

    def test_recovers_speed_ratios(self, engine):
        """Per-node slopes must mirror the emulated speed factors."""
        items = list(range(2000))
        sampler = ProgressiveSampler(engine=engine, seed=0)
        report = sampler.profile(LinearWorkload(), items, flat_stratification(2000))
        slopes = np.array([m.slope for m in report.models])
        # speeds 4,3,2,1 → slopes proportional to 1/4, 1/3, 1/2, 1.
        ratios = slopes / slopes[3]
        assert np.allclose(ratios, [0.25, 1 / 3, 0.5, 1.0], rtol=0.05)

    def test_linear_fit_is_good(self, engine):
        items = list(range(1000))
        report = ProgressiveSampler(engine=engine, seed=0).profile(
            LinearWorkload(), items, flat_stratification(1000)
        )
        assert all(r2 > 0.99 for r2 in report.r_squared)

    def test_sample_sizes_ascending_distinct(self, engine):
        items = list(range(500))
        report = ProgressiveSampler(engine=engine, seed=0).profile(
            LinearWorkload(), items, flat_stratification(500)
        )
        assert report.sample_sizes == sorted(set(report.sample_sizes))
        assert len(report.sample_sizes) >= 2

    def test_one_model_per_node(self, engine):
        items = list(range(300))
        report = ProgressiveSampler(engine=engine, seed=0).profile(
            LinearWorkload(), items, flat_stratification(300)
        )
        assert report.num_nodes == 4
        assert len(report.times) == 4

    def test_tiny_dataset_still_profiles(self, engine):
        items = list(range(10))
        report = ProgressiveSampler(engine=engine, seed=0).profile(
            LinearWorkload(), items, flat_stratification(10)
        )
        assert len(report.sample_sizes) >= 2

    def test_one_item_dataset_plans_no_worse_than_equal_split(self, engine):
        # Both probes are the one item, so there is no slope to fit: a
        # polyfit through them is singular and its plan idled the
        # fastest node ([0, 0, 1, 0] at twice the equal split's time).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ProgressiveSampler(engine=engine, seed=0).profile(
                LinearWorkload(), [0], flat_stratification(1)
            )
        assert report.sample_sizes == [1, 1]
        assert all(m.slope == 0.0 for m in report.models)
        optimizer = ParetoOptimizer(
            models=report.models, dirty_coeffs=engine.cluster.dirty_power_coefficients()
        )
        plan, equal = optimizer.solve(1, 1.0), optimizer.equal_split_plan(1)
        assert plan.sizes.tolist() == equal.sizes.tolist() == [1, 0, 0, 0]
        assert plan.predicted_makespan_s == equal.predicted_makespan_s

    def test_empty_dataset_rejected(self, engine):
        with pytest.raises(ValueError):
            ProgressiveSampler(engine=engine).profile(
                LinearWorkload(), [], flat_stratification(1)
            )

    def test_nonlinear_workload_lower_r2(self, engine):
        items = list(range(1000))
        lin = ProgressiveSampler(engine=engine, seed=0).profile(
            LinearWorkload(), items, flat_stratification(1000)
        )
        quad = ProgressiveSampler(engine=engine, seed=0).profile(
            QuadraticWorkload(), items, flat_stratification(1000)
        )
        assert min(quad.r_squared) < min(lin.r_squared) + 1e-9


class TestProbeLadder:
    """The sampler probes with one :meth:`profile_samples` call over
    samples gathered from the staged dataset; on the deterministic
    engine that must be the report the per-sample record-list probes
    gave."""

    #: ``(workload, dataset, size_scale)`` → the sample sizes and the
    #: speed-1 node's times that one ``profile_all_nodes`` call per
    #: record-list sample measured (seed 3, support 0.3).
    PINNED = {
        ("treemining", "swissprot", 0.2): (
            [8, 12, 16, 20], [0.59378, 0.52116, 0.527, 0.53316]
        ),
        ("fpgrowth", "rcv1", 0.1): (
            [8, 10, 14, 19, 24], [0.5112, 0.51666, 0.515, 0.5169, 0.5178]
        ),
        ("webgraph", "uk", 0.05): (
            [8, 10, 15, 20, 25], [0.5902000000000001, 0.6348, 0.7718, 0.9044, 0.988]
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: c[0])
    def test_staged_ladder_reproduces_the_record_probes(self, case):
        name, dataset, scale = case
        spec = WORKLOADS[name]
        data = load_dataset(dataset, size_scale=scale, seed=3)
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=spec.unit_rate)
        stratification = ParetoPartitioner(engine, kind=data.kind, seed=3).stratifier().stratify(
            data.items
        )
        sampler = ProgressiveSampler(engine=engine, seed=3)
        workload = spec.build(0.3)
        staged = sampler.profile(
            workload, data.items, stratification, encode_dataset(data.kind, data.items)
        )
        records = sampler.profile(workload, data.items, stratification)
        assert (staged.sample_sizes, staged.times[3]) == self.PINNED[case]
        assert staged.sample_sizes == records.sample_sizes
        assert staged.times == records.times
        assert staged.models == records.models
        assert staged.r_squared == records.r_squared

    def test_one_ladder_call_per_profile(self, monkeypatch):
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=100.0)
        calls = []
        ladder = engine.profile_samples

        def spy(workload, samples):
            calls.append([len(s) for s in samples])
            return ladder(workload, samples)

        monkeypatch.setattr(engine, "profile_samples", spy)
        monkeypatch.setattr(engine, "profile_all_nodes", None)  # not the probe path
        report = ProgressiveSampler(engine=engine, seed=0).profile(
            LinearWorkload(), list(range(400)), flat_stratification(400)
        )
        assert calls == [report.sample_sizes]

    def test_staged_dataset_must_match_items(self):
        engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=100.0)
        with pytest.raises(ValueError, match="staged dataset holds 3 items"):
            ProgressiveSampler(engine=engine).profile(
                LinearWorkload(),
                [[1], [2]],
                flat_stratification(2),
                encode_dataset("set", [[1], [2], [3]]),
            )

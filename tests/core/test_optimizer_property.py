"""Property-based robustness tests for the front and its two views.

Instances include the ugly inputs the planner meets in practice: flat
models (slope 0, what a noisy profile clamps to), zero dirty
coefficients (a node running on green power — two of four on
``paper_cluster``), negative intercepts, fewer items than nodes, and a
floor above N/p. ``scipy``'s ``linprog`` is the independent oracle; the
production path does not import it.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.heterogeneity import LinearTimeModel
from repro.core.optimizer import ParetoOptimizer, predict_makespan
from repro.core.pareto import pareto_dominates

linprog = pytest.importorskip("scipy.optimize").linprog

model_strategy = st.builds(
    LinearTimeModel,
    slope=st.one_of(st.just(0.0), st.floats(min_value=0.001, max_value=2.0)),
    intercept=st.floats(min_value=-1.0, max_value=5.0),
)

instance_strategy = st.integers(min_value=2, max_value=8).flatmap(
    lambda p: st.tuples(
        st.lists(model_strategy, min_size=p, max_size=p),
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=500.0)),
            min_size=p,
            max_size=p,
        ),
        st.integers(min_value=1, max_value=5000),
        st.sampled_from([1.0, 0.999, 0.99, 0.9, 0.5, 0.0]),
    )
)

#: Floors from "none" through "above N/p" to "above N".
floor_strategy = st.integers(min_value=0, max_value=6000)


def lp_oracle(models, coeffs, total, alpha):
    """The paper's scalarised LP, solved by HiGHS: the optimal
    ``α·v + (1−α)·Σ k_i (m_i x_i + c_i)`` over z = [x_1..x_p, v]."""
    p = len(models)
    m = np.array([mod.slope for mod in models])
    c = np.array([mod.intercept for mod in models])
    k = np.asarray(coeffs, dtype=np.float64)
    a_ub = np.hstack([np.diag(m), -np.ones((p, 1))])  # m_i x_i − v ≤ −c_i
    a_eq = np.concatenate([np.ones(p), [0.0]])[None, :]
    res = linprog(
        np.concatenate([(1.0 - alpha) * k * m, [alpha]]),
        A_ub=a_ub, b_ub=-c, A_eq=a_eq, b_eq=[float(total)],
        bounds=[(0.0, None)] * (p + 1), method="highs",
        # HiGHS' default 1e-7 would call a basis optimal while a cost of
        # (1−α)·k·m below that is still on the table.
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert res.success, res.message
    return float(res.fun) + (1.0 - alpha) * float(k @ c)


def scalarised(alpha, makespan, energy):
    return alpha * makespan + (1.0 - alpha) * energy


class TestFrontProperties:
    @given(instance_strategy, floor_strategy)
    @settings(max_examples=80, deadline=None)
    def test_vertices_monotone_and_mutually_non_dominated(self, instance, floor):
        models, coeffs, total, _alpha = instance
        bands = ParetoOptimizer(models, coeffs)._bands(total, floor)
        points = sorted({(t, e) for _above, (t, e, _x) in bands})
        assert points
        for (t0, e0), (t1, e1) in zip(points, points[1:]):
            assert t1 > t0 and e1 < e0
        for a in points:
            assert not any(pareto_dominates(b, a) for b in points)

    @given(instance_strategy)
    # Node 0's capacity at the first breakpoint is 8e-12 items: emptying
    # it must not drop that mass from the vertex.
    @example((
        [LinearTimeModel(1.0, 1.0), LinearTimeModel(1.0, 1.6e-11)], [0.0, 0.0], 1, 1.0,
    ))
    @settings(max_examples=80, deadline=None)
    def test_scalarised_optimum_equals_the_lp_oracle(self, instance):
        """Before rounding, the best front vertex scores what HiGHS
        finds for the paper's LP — at every α, on every ugly input."""
        models, coeffs, total, _alpha = instance
        nobody = np.zeros(len(models), dtype=bool)
        front = ParetoOptimizer(models, coeffs)._vertices(total, nobody)
        for t, _e, x in front:  # feasible, so never better than the oracle by luck
            assert x.min() >= 0.0 and x.sum() == pytest.approx(total, rel=1e-12)
            times = [m.slope * xi + m.intercept for m, xi in zip(models, x)]
            assert t >= max(times) - 1e-9 * (1 + t)
        for alpha in (1.0, 0.999, 0.99, 0.9, 0.5, 0.0):
            ours = min(scalarised(alpha, t, e) for t, e, _x in front)
            # abs: what the oracle's own 1e-10 tolerance is worth over N items.
            assert ours == pytest.approx(
                lp_oracle(models, coeffs, total, alpha), rel=1e-9, abs=1e-6
            )

    @given(instance_strategy, floor_strategy)
    @settings(max_examples=80, deadline=None)
    def test_every_solve_is_a_front_member(self, instance, floor):
        models, coeffs, total, alpha = instance
        opt = ParetoOptimizer(models, coeffs)
        front = [p.sizes.tolist() for p in opt.front(total, floor)]
        assert opt.solve(total, alpha, min_items=floor).sizes.tolist() in front

    @given(instance_strategy)
    # Two nodes tied in k·m: the tail's two energies differ in the last digit.
    @example((
        [LinearTimeModel(0.3289862141614496, 4.25), LinearTimeModel(0.3289862141614496, 0.0)],
        [0.3289862141614496] * 2, 1, 1.0,
    ))
    @settings(max_examples=80, deadline=None)
    def test_equal_split_never_dominates_a_front_point(self, instance):
        """Equal sizes are feasible for the LP, so on the LP's own
        accounting (an empty node still bounds v by its intercept) they
        cannot beat a Pareto-optimal vertex in both objectives."""
        models, coeffs, total, _alpha = instance
        p = len(models)
        times = [m.slope * total / p + m.intercept for m in models]
        equal = (max(max(times), 0.0), float(np.dot(coeffs, times)))
        vertices = ParetoOptimizer(models, coeffs)._vertices(total, np.zeros(p, bool))
        for i, (t, e, _x) in enumerate(vertices):
            slack = 1e-9 * (abs(t) + abs(e) + 1.0)
            if i and e >= vertices[i - 1][1] - slack:
                continue  # the flat tail kept for the floor rule, not a Pareto point
            assert not (equal[0] < t - slack and equal[1] <= e + slack)
            assert not (equal[0] <= t + slack and equal[1] < e - slack)

    @given(instance_strategy, floor_strategy)
    @settings(max_examples=80, deadline=None)
    def test_front_plans_partition_the_total_above_the_floor(self, instance, floor):
        models, coeffs, total, _alpha = instance
        for plan in ParetoOptimizer(models, coeffs).front(total, floor):
            assert plan.sizes.sum() == total
            for s in plan.sizes:
                # Idle, at/above the floor (±1 from rounding), or the
                # degenerate everything-on-one-node case.
                assert s == 0 or s >= floor - 1 or s == total

    @given(instance_strategy, floor_strategy)
    @settings(max_examples=40, deadline=None)
    def test_front_deterministic(self, instance, floor):
        models, coeffs, total, _alpha = instance
        a = ParetoOptimizer(models, coeffs).front(total, floor)
        b = ParetoOptimizer(models, coeffs).front(total, floor)
        assert [p.sizes.tolist() for p in a] == [p.sizes.tolist() for p in b]


ALPHAS = (1.0, 0.999, 0.997, 0.99, 0.9, 0.5, 0.0)


def plan_tuple(plan):
    """A plan as comparable values (α as text: a front plan's is NaN)."""
    return (
        plan.sizes.tolist(), str(plan.alpha), plan.predicted_makespan_s,
        plan.predicted_dirty_energy_j,
    )


class TestEnumeratedOnce:
    """The front is enumerated once per ``(N, floor)`` and kept; what a
    warm optimizer hands out is what a fresh one computes."""

    @given(instance_strategy, floor_strategy)
    @settings(max_examples=60, deadline=None)
    def test_kept_plans_equal_fresh_ones(self, instance, floor):
        models, coeffs, total, _alpha = instance
        warm = ParetoOptimizer(models, coeffs)
        warm.front(total, floor)
        for alpha in ALPHAS:
            fresh = ParetoOptimizer(models, coeffs).solve(total, alpha, floor)
            assert plan_tuple(warm.solve(total, alpha, floor)) == plan_tuple(fresh)
        fresh_front = ParetoOptimizer(models, coeffs).front(total, floor)
        assert [plan_tuple(p) for p in warm.front(total, floor)] == [
            plan_tuple(p) for p in fresh_front
        ]

    def test_one_enumeration_per_key(self, monkeypatch):
        calls = []
        bands = ParetoOptimizer._bands

        def spy(self, total_items, min_items):
            calls.append((total_items, min_items))
            return bands(self, total_items, min_items)

        monkeypatch.setattr(ParetoOptimizer, "_bands", spy)
        models = [LinearTimeModel(1e-3 / s, 0.02 / s) for s in (4.0, 3.0, 2.0, 1.0)]
        opt = ParetoOptimizer(models, [193.0, 51.0, 0.0, 0.0])
        for alpha in ALPHAS:
            opt.solve(4800, alpha, min_items=240)
        opt.front(4800, 240)
        opt.solve(4800, 1.0)
        opt.front(4800)
        assert calls == [(4800, 240), (4800, 0)]

    def test_handed_out_plans_are_copies(self):
        models = [LinearTimeModel(1e-3 / s, 0.02 / s) for s in (4.0, 3.0, 2.0, 1.0)]
        opt = ParetoOptimizer(models, [193.0, 51.0, 0.0, 0.0])
        front = [plan_tuple(p) for p in opt.front(4800, 240)]
        solved = [plan_tuple(opt.solve(4800, a, 240)) for a in ALPHAS]
        for plan in opt.front(4800, 240) + [opt.solve(4800, a, 240) for a in ALPHAS]:
            plan.sizes[:] = 0
            plan.predicted_makespan_s = -1.0
        assert [plan_tuple(p) for p in opt.front(4800, 240)] == front
        assert [plan_tuple(opt.solve(4800, a, 240)) for a in ALPHAS] == solved

    def test_threads_sharing_an_optimizer_get_identical_plans(self):
        """More threads than cores, switching often: each may enumerate
        the key, and all then read the one entry kept."""
        speeds = (4.0, 3.0, 2.0, 1.0) * 2
        models = [LinearTimeModel(1e-3 / s, 0.02 / s) for s in speeds]
        coeffs = [440.0, 100.0, 50.0, 80.0, 430.0, 200.0, 60.0, 60.0]
        expected = [plan_tuple(ParetoOptimizer(models, coeffs).solve(6000, a, 300)) for a in ALPHAS]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = ParetoOptimizer(models, coeffs)
                start = threading.Barrier(4)
                seen: list[list] = [[] for _ in range(4)]

                def work(slot):
                    start.wait()
                    seen[slot] += [plan_tuple(shared.solve(6000, a, 300)) for a in ALPHAS]
                    seen[slot].append([plan_tuple(p) for p in shared.front(6000, 300)])

                threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert all(s == seen[0] for s in seen)
                assert seen[0][: len(ALPHAS)] == expected
                assert list(shared._enumerated) == [(6000, 300)]
        finally:
            sys.setswitchinterval(interval)


def billed_as_planned(instance):
    """The instance bent so that a plan's predicted cost is what the LP
    charged for it: every node gets an item under equal split and no
    intercept is negative, so leaving a node empty never costs more
    than the LP's ``v ≥ c_i`` row assumed."""
    models, coeffs, total, alpha = instance
    models = [LinearTimeModel(m.slope, abs(m.intercept)) for m in models]
    return models, coeffs, max(total, len(models)), alpha


class TestLPProperties:
    @given(instance_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sizes_always_partition_total(self, instance):
        models, coeffs, total, alpha = instance
        plan = ParetoOptimizer(models=models, dirty_coeffs=coeffs).solve(total, alpha)
        assert plan.sizes.sum() == total
        assert (plan.sizes >= 0).all()

    @given(instance_strategy)
    @settings(max_examples=60, deadline=None)
    def test_alpha_one_never_worse_than_equal_split(self, instance):
        models, coeffs, total, _alpha = billed_as_planned(instance)
        opt = ParetoOptimizer(models=models, dirty_coeffs=coeffs)
        het = opt.solve(total, 1.0)
        equal = opt.equal_split_plan(total)
        # Integer rounding can cost at most one item's worth of slack.
        slack = max(m.slope for m in models) * 2 + 1e-6
        assert het.predicted_makespan_s <= equal.predicted_makespan_s + slack

    @given(instance_strategy)
    @settings(max_examples=60, deadline=None)
    def test_alpha_zero_never_dirtier_than_equal_split(self, instance):
        models, coeffs, total, _alpha = billed_as_planned(instance)
        opt = ParetoOptimizer(models=models, dirty_coeffs=coeffs)
        green = opt.solve(total, 0.0)
        equal = opt.equal_split_plan(total)
        slack = max(
            k * m.slope for k, m in zip(coeffs, models)
        ) * 2 + 1e-6
        assert green.predicted_dirty_energy_j <= equal.predicted_dirty_energy_j + slack

    @given(instance_strategy, st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_min_items_semicontinuous(self, instance, min_items):
        models, coeffs, total, alpha = instance
        opt = ParetoOptimizer(models=models, dirty_coeffs=coeffs)
        plan = opt.solve(total, alpha, min_items=min_items)
        assert plan.sizes.sum() == total
        for s in plan.sizes:
            # Either idle, at/above the floor (±1 from rounding), or the
            # degenerate everything-on-one-node case.
            assert s == 0 or s >= min_items - 1 or s == total

    @given(instance_strategy)
    @settings(max_examples=40, deadline=None)
    def test_predictions_match_sizes(self, instance):
        models, coeffs, total, alpha = instance
        opt = ParetoOptimizer(models=models, dirty_coeffs=coeffs)
        plan = opt.solve(total, alpha)
        assert plan.predicted_makespan_s == pytest.approx(
            predict_makespan(models, plan.sizes)
        )

    @given(instance_strategy)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, instance):
        models, coeffs, total, alpha = instance
        opt = ParetoOptimizer(models=models, dirty_coeffs=coeffs)
        a = opt.solve(total, alpha)
        b = opt.solve(total, alpha)
        assert np.array_equal(a.sizes, b.sizes)

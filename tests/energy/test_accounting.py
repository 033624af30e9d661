"""Unit tests for dirty-energy accounting: a node's ``k_i`` and its bill
(:meth:`Node.bill`), over :meth:`EnergyTrace.deficit_joules`."""

import numpy as np
import pytest

from repro.cluster.node import Node, NodeType
from repro.energy.traces import EnergyTrace


def node(watts_trace, cores=2, resolution=1.0):
    return Node(
        node_id=0,
        node_type=NodeType(type_id=0, speed_factor=1.0, cores=cores),  # 60 + cores*95 W
        trace=EnergyTrace(watts=np.asarray(watts_trace, dtype=float), resolution_s=resolution),
    )


def dirty(n, runtime_s, start_s=0.0):
    return n.bill(runtime_s, start_s)[1]


class TestDirtyPowerCoefficient:
    def test_deficit(self):
        n = node([50.0, 50.0])  # draw 250 W, green 50 W
        assert n.dirty_power_coefficient() == pytest.approx(200.0)

    def test_surplus_clamped_to_zero(self):
        n = node([1000.0])
        assert n.dirty_power_coefficient() == 0.0


class TestMeasuredDirtyEnergy:
    def test_constant_trace_matches_prediction(self):
        n = node([50.0, 50.0, 50.0, 50.0])
        # On a constant trace the planning rate is exact: k · runtime.
        assert dirty(n, 3.0) == pytest.approx(n.dirty_power_coefficient() * 3.0)

    def test_varying_trace_integrates_per_sample(self):
        trace = EnergyTrace(watts=np.array([250.0, 0.0]))
        # Draw 250 W: first second fully green (deficit 0), second fully dirty.
        assert trace.deficit_joules(250.0, 0.0, 2.0) == pytest.approx(250.0)

    def test_surplus_does_not_offset_when_clamped(self):
        trace = EnergyTrace(watts=np.array([500.0, 0.0]))
        # Surplus in second 1 cannot cancel the deficit in second 2.
        assert trace.deficit_joules(250.0, 0.0, 2.0) == pytest.approx(250.0)

    def test_mid_cell_start(self):
        trace = EnergyTrace(watts=np.array([10.0, 20.0]), resolution_s=1.0)
        # Draw 250 W from 0.5 s for 2 s: 0.5 s against 10 W, 1 s against
        # 20 W, then 0.5 s against the extrapolated final 20 W sample.
        assert trace.deficit_joules(250.0, 0.5, 2.0) == pytest.approx(
            0.5 * 240.0 + 1.0 * 230.0 + 0.5 * 230.0
        )

    def test_start_offset(self):
        n = node([0.0, 250.0])
        assert dirty(n, 1.0, start_s=1.0) == pytest.approx(0.0)
        assert dirty(n, 1.0, start_s=0.0) == pytest.approx(250.0)

    def test_zero_runtime(self):
        assert node([10.0]).bill(0.0) == (0.0, 0.0)

    def test_runtime_past_trace_extends_final_sample(self):
        n = node([100.0])
        # Deficit 150 W held for 10 s.
        assert n.bill(10.0) == pytest.approx((2500.0, 1500.0))

    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            node([10.0]).bill(-1.0)
        with pytest.raises(ValueError):
            EnergyTrace(watts=np.array([10.0])).deficit_joules(250.0, 0.0, -1.0)

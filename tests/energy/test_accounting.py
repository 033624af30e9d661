"""Unit tests for dirty-energy accounting."""

import numpy as np
import pytest

from repro.energy.accounting import DirtyEnergyAccountant
from repro.energy.power import NodePowerModel
from repro.energy.traces import EnergyTrace


def accountant(watts_trace, cores=2, resolution=1.0):
    return DirtyEnergyAccountant(
        power=NodePowerModel(cores=cores),  # 60 + cores*95 W
        trace=EnergyTrace(watts=np.asarray(watts_trace, dtype=float), resolution_s=resolution),
    )


class TestDirtyPowerCoefficient:
    def test_deficit(self):
        acc = accountant([50.0, 50.0])  # draw 250 W, green 50 W
        assert acc.dirty_power_coefficient() == pytest.approx(200.0)

    def test_surplus_clamped_to_zero(self):
        acc = accountant([1000.0])
        assert acc.dirty_power_coefficient() == 0.0


class TestMeasuredDirtyEnergy:
    def test_constant_trace_matches_prediction(self):
        acc = accountant([50.0, 50.0, 50.0, 50.0])
        # On a constant trace the planning rate is exact: k · runtime.
        assert acc.measured_dirty_energy(3.0) == pytest.approx(
            acc.dirty_power_coefficient() * 3.0
        )

    def test_varying_trace_integrates_per_sample(self):
        acc = accountant([250.0, 0.0])  # draw 250 W
        # First second fully green (deficit 0), second fully dirty.
        assert acc.measured_dirty_energy(2.0) == pytest.approx(250.0)

    def test_surplus_does_not_offset_when_clamped(self):
        acc = accountant([500.0, 0.0])
        # Surplus in second 1 cannot cancel the deficit in second 2.
        assert acc.measured_dirty_energy(2.0) == pytest.approx(250.0)

    def test_start_offset(self):
        acc = accountant([0.0, 250.0])
        assert acc.measured_dirty_energy(1.0, start_s=1.0) == pytest.approx(0.0)
        assert acc.measured_dirty_energy(1.0, start_s=0.0) == pytest.approx(250.0)

    def test_zero_runtime(self):
        assert accountant([10.0]).measured_dirty_energy(0.0) == 0.0

    def test_runtime_past_trace_extends_final_sample(self):
        acc = accountant([100.0])
        # Deficit 150 W held for 10 s.
        assert acc.measured_dirty_energy(10.0) == pytest.approx(1500.0)


class TestGreenFraction:
    def test_fully_dirty(self):
        assert accountant([0.0]).green_fraction(5.0) == pytest.approx(0.0)

    def test_fully_green(self):
        assert accountant([1000.0]).green_fraction(5.0) == pytest.approx(1.0)

    def test_half_green(self):
        acc = accountant([125.0])  # draw 250 W
        assert acc.green_fraction(4.0) == pytest.approx(0.5)

    def test_invalid_runtime(self):
        with pytest.raises(ValueError):
            accountant([1.0]).green_fraction(0.0)

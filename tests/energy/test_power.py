"""Unit tests for the node power model (paper Section V-A arithmetic)."""

import pytest

from repro.cluster.node import PAPER_NODE_TYPES
from repro.energy.power import PAPER_BASE_WATTS, PAPER_CORE_WATTS, NodePowerModel


class TestPaperArithmetic:
    def test_base_watts_derivation(self):
        # 1200 W chassis − 12 × 95 W Xeons = 60 W base.
        assert 1200 - 12 * PAPER_CORE_WATTS == PAPER_BASE_WATTS

    @pytest.mark.parametrize(
        "node_type,expected_watts",
        [(1, 440.0), (2, 345.0), (3, 250.0), (4, 155.0)],
    )
    def test_four_machine_types(self, node_type, expected_watts):
        assert PAPER_NODE_TYPES[node_type - 1].power_model().watts == expected_watts


class TestNodePowerModel:
    def test_affine_formula(self):
        model = NodePowerModel(cores=3, base_watts=50.0, per_core_watts=100.0)
        assert model.watts == 350.0

    def test_energy(self):
        model = NodePowerModel(cores=1, base_watts=0.0, per_core_watts=100.0)
        assert model.energy_joules(10.0) == 1000.0

    def test_energy_zero_duration(self):
        assert NodePowerModel(cores=1).energy_joules(0.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            NodePowerModel(cores=1).energy_joules(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodePowerModel(cores=0)
        with pytest.raises(ValueError):
            NodePowerModel(cores=1, base_watts=-1.0)

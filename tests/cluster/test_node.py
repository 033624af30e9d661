"""Unit tests for the cluster node model."""

import numpy as np
import pytest

from repro.cluster.node import PAPER_NODE_TYPES, Node, NodeType
from repro.energy.traces import EnergyTrace


def make_node(speed=2.0, cores=2, overhead=0.5, green=0.0):
    return Node(
        node_id=0,
        node_type=NodeType(type_id=0, speed_factor=speed, cores=cores),
        trace=EnergyTrace(watts=np.full(100, green)),
        task_overhead_s=overhead,
    )


class TestNodeTypes:
    def test_paper_preset_speeds(self):
        assert [t.speed_factor for t in PAPER_NODE_TYPES] == [4.0, 3.0, 2.0, 1.0]

    def test_paper_preset_cores(self):
        assert [t.cores for t in PAPER_NODE_TYPES] == [4, 3, 2, 1]

    def test_paper_preset_watts(self):
        assert [t.power_model().watts for t in PAPER_NODE_TYPES] == [
            440.0,
            345.0,
            250.0,
            155.0,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeType(type_id=0, speed_factor=0.0, cores=1)
        with pytest.raises(ValueError):
            NodeType(type_id=0, speed_factor=1.0, cores=0)


class TestRuntimeModel:
    def test_speed_divides_runtime(self):
        slow = make_node(speed=1.0, overhead=0.0)
        fast = make_node(speed=4.0, overhead=0.0)
        work = 1000.0
        assert slow.runtime_for_work(work, 100.0) == pytest.approx(
            4 * fast.runtime_for_work(work, 100.0)
        )

    def test_overhead_included(self):
        node = make_node(speed=2.0, overhead=1.0)
        assert node.runtime_for_work(0.0, 100.0) == pytest.approx(0.5)

    def test_linear_in_work(self):
        node = make_node(speed=1.0, overhead=0.0)
        t1 = node.runtime_for_work(100.0, 10.0)
        t2 = node.runtime_for_work(200.0, 10.0)
        assert t2 == pytest.approx(2 * t1)

    def test_invalid_inputs(self):
        node = make_node()
        with pytest.raises(ValueError):
            node.runtime_for_work(-1.0, 10.0)
        with pytest.raises(ValueError):
            node.runtime_for_work(1.0, 0.0)


class TestNodeValidation:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Node(
                node_id=-1,
                node_type=PAPER_NODE_TYPES[0],
                trace=EnergyTrace(watts=np.zeros(1)),
            )

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            make_node(overhead=-0.1)

    def test_accountant_wired(self):
        node = make_node(cores=1, green=55.0)
        # draw 155 W − 55 W green = 100 W dirty, billed by the node itself.
        assert node.dirty_power_coefficient() == pytest.approx(100.0)
        assert node.bill(2.0) == pytest.approx((310.0, 200.0))
        assert node.power == PAPER_NODE_TYPES[3].power_model()

    def test_watts_property(self):
        assert make_node(cores=3).watts == pytest.approx(345.0)

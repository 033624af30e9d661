"""Tests for energy-trace CSV round-tripping."""

import numpy as np
import pytest

from repro.energy.traces import GOOGLE_DC_LOCATIONS, EnergyTrace, generate_trace


class TestTraceCSV:
    def test_roundtrip(self, tmp_path):
        trace = generate_trace(
            GOOGLE_DC_LOCATIONS[0], 1800.0, resolution_s=60.0, seed=3
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = EnergyTrace.from_csv(path, location=GOOGLE_DC_LOCATIONS[0])
        assert loaded.resolution_s == pytest.approx(60.0)
        assert np.allclose(loaded.watts, trace.watts, atol=1e-3)
        assert loaded.location is GOOGLE_DC_LOCATIONS[0]

    def test_header_written(self, tmp_path):
        trace = EnergyTrace(watts=np.array([1.0, 2.0]))
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        assert path.read_text().splitlines()[0] == "time_s,watts"

    def test_single_row_defaults_resolution(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,watts\n0.0,5.0\n")
        loaded = EnergyTrace.from_csv(path)
        assert loaded.resolution_s == 1.0
        assert loaded.watts.tolist() == [5.0]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,watts\n")
        with pytest.raises(ValueError):
            EnergyTrace.from_csv(path)

    def test_non_increasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,watts\n10.0,1.0\n5.0,1.0\n")
        with pytest.raises(ValueError):
            EnergyTrace.from_csv(path)

    def test_real_export_usable_in_accounting(self, tmp_path):
        """A trace loaded from CSV plugs straight into a node's books."""
        from repro.cluster.node import PAPER_NODE_TYPES, Node

        path = tmp_path / "t.csv"
        path.write_text("time_s,watts\n0.0,100.0\n60.0,200.0\n")
        trace = EnergyTrace.from_csv(path)
        node = Node(node_id=0, node_type=PAPER_NODE_TYPES[2], trace=trace)  # 250 W
        assert node.dirty_power_coefficient() == pytest.approx(250.0 - 150.0)
        # 60 s at 150 W short, then 30 s at 50 W short.
        assert node.bill(90.0) == pytest.approx((250.0 * 90.0, 150.0 * 60 + 50.0 * 30))

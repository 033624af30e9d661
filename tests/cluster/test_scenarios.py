"""Unit tests for the data-center renewable-design scenarios."""

import numpy as np
import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.scenarios import (
    SCENARIOS,
    iswitch_cluster,
    rack_level_cluster,
)


class TestRackLevel:
    def test_panel_sizes_cycle(self):
        cluster = rack_level_cluster(8, seed=0)
        means = [n.trace.watts.mean() for n in cluster]
        # Panels 800/400/200/0 W: strictly decreasing mean supply.
        assert means[0] > means[1] > means[2] > means[3] == 0.0
        assert means[:4] == pytest.approx(means[4:])

    def test_shared_weather(self):
        cluster = rack_level_cluster(8, seed=0)
        # Node 0 (800 W) and node 1 (400 W) share the weather: their
        # traces are proportional.
        ratio = cluster[0].trace.watts / np.maximum(cluster[1].trace.watts, 1e-9)
        daylight = cluster[1].trace.watts > 1.0
        assert np.allclose(ratio[daylight], 2.0, rtol=0.01)

    def test_grid_tied_rack_fully_dirty(self):
        cluster = rack_level_cluster(4, seed=0)
        node = cluster[3]
        assert node.dirty_power_coefficient() == pytest.approx(node.watts)

    def test_speeds_unchanged(self):
        cluster = rack_level_cluster(8, seed=0)
        assert [n.speed_factor for n in cluster] == [4, 3, 2, 1, 4, 3, 2, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            rack_level_cluster(0)


class TestISwitch:
    def test_bimodal_supply(self):
        cluster = iswitch_cluster(8, green_fraction=0.5, seed=0)
        means = np.array([n.trace.watts.mean() for n in cluster])
        assert (means[:4] > 0).all()
        assert (means[4:] == 0).all()

    def test_green_racks_oversized_panels(self):
        cluster = iswitch_cluster(4, green_fraction=1.0, seed=0)
        for node in cluster:
            # Midday supply exceeds the node's own draw.
            assert node.trace.watts.max() > node.watts

    def test_dirty_coefficients_extreme(self):
        cluster = iswitch_cluster(8, green_fraction=0.5, seed=0)
        k = cluster.dirty_power_coefficients()
        # Grid racks pay full draw; green racks pay (near) nothing.
        assert (k[4:] == [n.watts for n in list(cluster)[4:]]).all()
        assert k[:4].max() < 0.5 * k[4:].min()

    def test_green_fraction_bounds(self):
        with pytest.raises(ValueError):
            iswitch_cluster(4, green_fraction=1.5)
        with pytest.raises(ValueError):
            iswitch_cluster(0)

    def test_zero_green_fraction(self):
        cluster = iswitch_cluster(4, green_fraction=0.0, seed=0)
        assert all(n.trace.watts.max() == 0 for n in cluster)


class TestRegistry:
    def test_three_designs(self):
        assert set(SCENARIOS) == {"rack-level", "iswitch", "geo-distributed"}

    def test_geo_is_paper_cluster(self):
        assert SCENARIOS["geo-distributed"] is paper_cluster
        cluster = SCENARIOS["geo-distributed"](8, seed=0)
        names = {n.trace.location.name for n in cluster}
        assert len(names) == 4

    def test_all_scenarios_buildable(self):
        for name, builder in SCENARIOS.items():
            cluster = builder(8, seed=1)
            assert cluster.num_nodes == 8, name

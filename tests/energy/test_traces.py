"""Unit tests for energy traces and trace generation."""

import numpy as np
import pytest

from repro.energy.traces import (
    GOOGLE_DC_LOCATIONS,
    EnergyTrace,
    Location,
    generate_trace,
)


class TestLocation:
    def test_presets_are_four_distinct_sites(self):
        assert len(GOOGLE_DC_LOCATIONS) == 4
        assert len({loc.name for loc in GOOGLE_DC_LOCATIONS}) == 4

    def test_presets_have_varied_cloudiness(self):
        clouds = [loc.mean_cloud for loc in GOOGLE_DC_LOCATIONS]
        assert max(clouds) - min(clouds) > 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            Location("x", 95.0, 0.0, mean_cloud=0.5)
        with pytest.raises(ValueError):
            Location("x", 40.0, 0.0, mean_cloud=1.5)
        with pytest.raises(ValueError):
            Location("x", 40.0, 0.0, mean_cloud=0.5, cloud_persistence=1.0)


class TestEnergyTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyTrace(watts=np.array([]))
        with pytest.raises(ValueError):
            EnergyTrace(watts=np.array([-1.0]))
        with pytest.raises(ValueError):
            EnergyTrace(watts=np.array([1.0]), resolution_s=0.0)

    def test_mean_power_window(self):
        trace = EnergyTrace(watts=np.array([10.0, 20.0, 30.0, 40.0]), resolution_s=1.0)
        assert trace.mean_power(0.0, 2.0) == pytest.approx(15.0)
        assert trace.mean_power() == pytest.approx(25.0)

    def test_duration(self):
        trace = EnergyTrace(watts=np.zeros(60), resolution_s=60.0)
        assert trace.duration_s == 3600.0


class TestGenerateTrace:
    def test_deterministic_in_seed(self):
        loc = GOOGLE_DC_LOCATIONS[0]
        t1 = generate_trace(loc, 3600.0, resolution_s=60.0, seed=5)
        t2 = generate_trace(loc, 3600.0, resolution_s=60.0, seed=5)
        assert np.array_equal(t1.watts, t2.watts)

    def test_different_seeds_differ(self):
        loc = GOOGLE_DC_LOCATIONS[0]
        t1 = generate_trace(loc, 3600.0, resolution_s=60.0, seed=1)
        t2 = generate_trace(loc, 3600.0, resolution_s=60.0, seed=2)
        assert not np.array_equal(t1.watts, t2.watts)

    def test_nonnegative_power(self):
        loc = GOOGLE_DC_LOCATIONS[1]
        trace = generate_trace(loc, 24 * 3600.0, resolution_s=600.0, seed=0)
        assert (trace.watts >= 0).all()

    def test_night_produces_zero(self):
        loc = GOOGLE_DC_LOCATIONS[0]
        trace = generate_trace(
            loc, 3600.0, start_hour=1.0, resolution_s=60.0, seed=0
        )
        assert trace.watts.max() == 0.0

    def test_daylight_produces_power(self):
        loc = GOOGLE_DC_LOCATIONS[3]  # sunniest site
        trace = generate_trace(loc, 3600.0, start_hour=12.0, resolution_s=60.0, seed=0)
        assert trace.watts.max() > 50.0

    def test_sunnier_site_higher_mean(self):
        # Averaged over seeds, the sunniest preset beats the cloudiest.
        cloudy, sunny = GOOGLE_DC_LOCATIONS[0], GOOGLE_DC_LOCATIONS[3]
        means_cloudy = np.mean(
            [
                generate_trace(cloudy, 6 * 3600.0, resolution_s=300.0, seed=s).watts.mean()
                for s in range(5)
            ]
        )
        means_sunny = np.mean(
            [
                generate_trace(sunny, 6 * 3600.0, resolution_s=300.0, seed=s).watts.mean()
                for s in range(5)
            ]
        )
        assert means_sunny > means_cloudy

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            generate_trace(GOOGLE_DC_LOCATIONS[0], 0.0)

    def test_trace_length_matches_duration(self):
        trace = generate_trace(
            GOOGLE_DC_LOCATIONS[0], 1000.0, resolution_s=60.0, seed=0
        )
        assert trace.watts.size == int(np.ceil(1000.0 / 60.0))

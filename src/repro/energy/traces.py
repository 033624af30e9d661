"""Renewable-energy traces for data-center sites.

The paper selects four Google data-center locations and generates
renewable traces for each with PVWATTS. Here the trace generator
combines the clear-sky solar model with a seeded AR(1) cloud-cover
process whose parameters come from a per-location climate preset.
Traces are sampled at a configurable resolution (per-second by default,
matching the paper's note that the hourly PVWATTS output "can be
rescaled to per second average for greater precision").
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.energy.solar import SolarModel, SolarPanel


@dataclass(frozen=True)
class Location:
    """A data-center site with a solar-climate preset.

    ``mean_cloud`` and ``cloud_persistence`` parameterise the AR(1)
    cloud process; ``cloud_volatility`` is the innovation scale.
    """

    name: str
    latitude_deg: float
    longitude_deg: float
    mean_cloud: float
    cloud_persistence: float = 0.95
    cloud_volatility: float = 0.08

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError("latitude out of range")
        if not 0.0 <= self.mean_cloud <= 1.0:
            raise ValueError("mean_cloud must be in [0, 1]")
        if not 0.0 <= self.cloud_persistence < 1.0:
            raise ValueError("cloud_persistence must be in [0, 1)")


#: The four Google data-center sites the paper's setup references,
#: with climatological mean cloudiness (sunnier in OK, cloudier in OR).
GOOGLE_DC_LOCATIONS: tuple[Location, ...] = (
    Location("the-dalles-or", 45.61, -121.18, mean_cloud=0.62),
    Location("council-bluffs-ia", 41.26, -95.86, mean_cloud=0.48),
    Location("berkeley-county-sc", 33.19, -80.01, mean_cloud=0.40),
    Location("mayes-county-ok", 36.24, -95.33, mean_cloud=0.32),
)


@dataclass
class EnergyTrace:
    """A renewable power trace: ``watts[i]`` at time ``i * resolution_s``.

    Provides the two views the framework needs: the mean available green
    power over a window (feeds ``k_i`` in the LP) and the exact deficit
    of a constant draw against it over an interval (the dirty energy a
    node is billed).
    """

    watts: np.ndarray
    resolution_s: float = 1.0
    location: Location | None = None

    def __post_init__(self) -> None:
        self.watts = np.asarray(self.watts, dtype=np.float64)
        if self.watts.ndim != 1 or self.watts.size == 0:
            raise ValueError("trace must be a non-empty 1-D array")
        if (self.watts < 0).any():
            raise ValueError("green power cannot be negative")
        if self.resolution_s <= 0:
            raise ValueError("resolution must be positive")

    @property
    def duration_s(self) -> float:
        return self.watts.size * self.resolution_s

    def mean_power(self, start_s: float = 0.0, duration_s: float | None = None) -> float:
        """Mean green power over ``[start_s, start_s + duration_s)``."""
        if duration_s is None:
            duration_s = self.duration_s - start_s
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        lo = int(start_s / self.resolution_s)
        hi = int(np.ceil((start_s + duration_s) / self.resolution_s))
        lo = min(max(lo, 0), self.watts.size - 1)
        hi = min(max(hi, lo + 1), self.watts.size)
        return float(self.watts[lo:hi].mean())

    def to_csv(self, path) -> None:
        """Write the trace as ``time_s,watts`` rows (PVWATTS-export style),
        so real trace data can round-trip through the same format."""
        import pathlib

        lines = ["time_s,watts"]
        for i, w in enumerate(self.watts):
            lines.append(f"{i * self.resolution_s:.1f},{w:.4f}")
        pathlib.Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, location: Location | None = None) -> "EnergyTrace":
        """Load a trace written by :meth:`to_csv` (or a real PVWATTS
        export reduced to ``time_s,watts`` columns). The resolution is
        inferred from the first two timestamps."""
        import pathlib

        rows = pathlib.Path(path).read_text().strip().splitlines()
        if len(rows) < 2:
            raise ValueError("trace CSV needs a header and at least one row")
        body = rows[1:]
        times = []
        watts = []
        for row in body:
            t_str, w_str = row.split(",")
            times.append(float(t_str))
            watts.append(float(w_str))
        resolution = times[1] - times[0] if len(times) > 1 else 1.0
        if resolution <= 0:
            raise ValueError("timestamps must be increasing")
        return cls(
            watts=np.array(watts), resolution_s=resolution, location=location
        )

    def deficit_joules(self, draw_w: float, start_s: float, duration_s: float) -> float:
        """Exact energy (J) a constant ``draw_w`` takes beyond the green
        supply in the window: ``∫ max(0, draw_w − GE(t)) dt``, sample by
        sample, so a surplus in one sample never offsets a deficit in
        another. Windows past the end of the trace hold the final
        sample (steady-state extrapolation)."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        last = self.watts.size - 1
        total = 0.0
        t = start_s
        end = start_s + duration_s
        while t < end:
            idx = min(int(t / self.resolution_s), last)
            cell_end = (idx + 1) * self.resolution_s
            if idx == last:
                cell_end = max(cell_end, end)
            step = min(cell_end, end) - t
            total += max(draw_w - float(self.watts[idx]), 0.0) * step
            t += step
        return total


#: Day of year every generated trace starts on (172 ≈ June 21).
START_DAY_OF_YEAR = 172


def generate_trace(
    location: Location,
    duration_s: float,
    *,
    start_hour: float = 8.0,
    resolution_s: float = 1.0,
    panel: SolarPanel | None = None,
    seed: int = 0,
) -> EnergyTrace:
    """Generate a renewable trace for a site with AR(1) cloud dynamics.

    Every trace starts on :data:`START_DAY_OF_YEAR`; the default hour
    (08:00 local solar time) puts job windows into daylight so green
    supply is non-trivially variable.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    model = SolarModel(location.latitude_deg, panel or SolarPanel())
    n = max(1, int(np.ceil(duration_s / resolution_s)))
    t = np.arange(n) * resolution_s
    hours = (start_hour + t / 3600.0) % 24.0
    days = START_DAY_OF_YEAR + ((start_hour + t / 3600.0) // 24.0)

    rng = np.random.default_rng(seed)
    # AR(1) around the site's climatological mean; update per simulated
    # minute so second-resolution traces stay smooth.
    step_s = max(resolution_s, 60.0)
    n_steps = int(np.ceil(duration_s / step_s)) + 1
    clouds_coarse = np.empty(n_steps)
    w = location.mean_cloud
    phi = location.cloud_persistence
    sigma = location.cloud_volatility
    for i in range(n_steps):
        clouds_coarse[i] = np.clip(w, 0.0, 1.0)
        w = location.mean_cloud + phi * (w - location.mean_cloud) + rng.normal(0.0, sigma)
    cloud_idx = np.minimum((t / step_s).astype(np.int64), n_steps - 1)
    clouds = clouds_coarse[cloud_idx]

    watts = model.power(days, hours, clouds)
    return EnergyTrace(watts=watts, resolution_s=resolution_s, location=location)

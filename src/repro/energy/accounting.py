"""Dirty-energy accounting.

Two views, matching the paper's Section III-B/III-D:

- **Planning view** (fed to the LP): the mean-rate approximation
  ``g(x_i) ≈ k_i · f(x_i)`` with ``k_i = E_i − ḠE_i`` the node's *dirty
  power coefficient* — consumption rate minus mean green supply over
  the node's trace, clamped at zero (surplus green power cannot make
  dirty energy negative).
- **Measurement view** (reported by the evaluation harness): the exact
  integral ``∫₀ᵀ max(0, E_i − GE_i(t)) dt`` over the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.power import NodePowerModel
from repro.energy.traces import EnergyTrace


@dataclass
class DirtyEnergyAccountant:
    """Bundles a node's power model with its green-energy trace."""

    power: NodePowerModel
    trace: EnergyTrace

    def dirty_power_coefficient(self) -> float:
        """``k_i = E_i − ḠE_i`` with ``ḠE_i`` the whole trace's mean (W).

        The green supply credited to a node is capped at its own draw —
        a node cannot bank more green power than it consumes. The
        planner's estimate ``k_i · f_i(x_i)`` is
        :func:`repro.core.optimizer.predict_dirty_energy`.
        """
        mean_green = self.trace.mean_power(0.0)
        return max(self.power.watts - mean_green, 0.0)

    def measured_dirty_energy(self, runtime_s: float, start_s: float = 0.0) -> float:
        """Exact dirty energy over ``[start, start + runtime)`` (J).

        Integrates ``max(0, E_i − GE_i(t))`` sample by sample, so a
        surplus in one sample never offsets a deficit in another.
        """
        if runtime_s < 0:
            raise ValueError("runtime must be non-negative")
        if runtime_s == 0:
            return 0.0
        res = self.trace.resolution_s
        draw = self.power.watts
        total = 0.0
        t = start_s
        end = start_s + runtime_s
        while t < end:
            idx = min(int(t / res), self.trace.watts.size - 1)
            cell_end = (idx + 1) * res
            if idx == self.trace.watts.size - 1:
                cell_end = max(cell_end, end)
            step = min(cell_end, end) - t
            total += max(draw - float(self.trace.watts[idx]), 0.0) * step
            t += step
        return total

    def green_fraction(self, runtime_s: float, start_s: float = 0.0) -> float:
        """Share of consumed energy covered by green supply in [0, 1]."""
        if runtime_s <= 0:
            raise ValueError("runtime must be positive")
        consumed = self.power.energy_joules(runtime_s)
        dirty = self.measured_dirty_energy(runtime_s, start_s)
        return float(np.clip(1.0 - dirty / consumed, 0.0, 1.0))

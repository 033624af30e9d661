"""Node power-consumption model.

The paper derives per-node power from HP SL server specs: a 12-core
1200 W server with 95 W Xeons implies a 60 W base
(``1200 − 95·12 = 60``), and the four emulated machine types are
assigned 4/3/2/1 effective cores, giving 440/345/250/155 W.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Per-core power draw (Intel Xeon figure used by the paper).
PAPER_CORE_WATTS = 95.0
#: Base (non-CPU) power of the HP SL chassis per the paper's arithmetic.
PAPER_BASE_WATTS = 60.0


@dataclass(frozen=True)
class NodePowerModel:
    """Affine power model ``P = base + cores · per_core`` for one node."""

    cores: int
    base_watts: float = PAPER_BASE_WATTS
    per_core_watts: float = PAPER_CORE_WATTS

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.base_watts < 0 or self.per_core_watts < 0:
            raise ValueError("power terms must be non-negative")

    @property
    def watts(self) -> float:
        """Total draw while the node is busy."""
        return self.base_watts + self.cores * self.per_core_watts

    def energy_joules(self, duration_s: float) -> float:
        """Energy consumed running flat-out for ``duration_s`` seconds."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        return self.watts * duration_s

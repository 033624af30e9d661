"""Named partitioning strategies (the schemes of Section V).

========================= =========================== =====================
Strategy                  Sizes                       Placement
========================= =========================== =====================
Stratified (baseline)     equal                       stratification-driven
Het-Aware                 LP with α = 1.0             stratification-driven
Het-Energy-Aware          LP with α = 0.999 (mining)  stratification-driven
                          or 0.995 (compression)
Random (extra baseline)   equal                       uniform random
Round-robin (extra)       equal                       round robin
========================= =========================== =====================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: α used by the paper's Het-Energy-Aware mining runs (their scales).
PAPER_ALPHA_FPM = 0.999
#: α used by the paper's Het-Energy-Aware compression runs.
PAPER_ALPHA_COMPRESSION = 0.995

# The meaningful α band depends on the ratio of the two objectives'
# scales (the paper flags exactly this sensitivity and proposes 0-1
# normalization as future work). At this repo's scales — seconds vs
# joules with k·m ≈ 100× m — the knee of the tradeoff curve sits near
# α ≈ 0.99, the same *position on the frontier* the paper's 0.999/0.995
# occupy at their scales.
ALPHA_FPM = 0.997
ALPHA_COMPRESSION = 0.994


@dataclass(frozen=True)
class Strategy:
    """A partitioning scheme: how sizes are chosen and items placed.

    Parameters
    ----------
    name:
        Report label.
    alpha:
        Scalarization weight for the LP; ``None`` means equal sizes
        (no heterogeneity awareness).
    placement:
        ``"representative"`` (each partition mirrors the payload),
        ``"similar"`` (strata kept together), ``"random"`` or
        ``"round-robin"``. Round-robin deals equal shares, so it takes
        no ``alpha``: the plan's sizes would never run.
    """

    name: str
    alpha: float | None
    placement: str = "representative"

    _PLACEMENTS = ("representative", "similar", "random", "round-robin")

    def __post_init__(self) -> None:
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.placement not in self._PLACEMENTS:
            raise ValueError(f"placement must be one of {self._PLACEMENTS}")
        if self.placement == "round-robin" and self.alpha is not None:
            raise ValueError(
                "round-robin placement is the equal-split baseline: alpha must be None"
            )

    @property
    def het_aware(self) -> bool:
        return self.alpha is not None

    def with_placement(self, placement: str) -> "Strategy":
        """Same sizing policy, different placement."""
        return replace(self, placement=placement)


STRATIFIED = Strategy(name="Stratified", alpha=None)
HET_AWARE = Strategy(name="Het-Aware", alpha=1.0)
RANDOM = Strategy(name="Random", alpha=None, placement="random")
ROUND_ROBIN = Strategy(name="Round-Robin", alpha=None, placement="round-robin")


def het_energy_aware(alpha: float = ALPHA_FPM) -> Strategy:
    """The Het-Energy-Aware scheme at a chosen tradeoff weight."""
    return Strategy(name="Het-Energy-Aware", alpha=alpha)


def at_alpha(alpha: float | None, placement: str = "representative") -> Strategy:
    """The strategy for one operating point: the LP at ``alpha``, or
    the equal-split baseline for ``None`` — what an α sweep and a
    service job with a per-request ``alpha`` both run."""
    name = "stratified" if alpha is None else f"alpha={alpha}"
    return Strategy(name=name, alpha=alpha, placement=placement)

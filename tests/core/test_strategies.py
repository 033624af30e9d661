"""Unit tests for the named strategies."""

import pytest

from repro.core.strategies import (
    ALPHA_COMPRESSION,
    ALPHA_FPM,
    HET_AWARE,
    PAPER_ALPHA_COMPRESSION,
    PAPER_ALPHA_FPM,
    RANDOM,
    ROUND_ROBIN,
    STRATIFIED,
    Strategy,
    het_energy_aware,
)


class TestPresets:
    def test_stratified_is_not_het_aware(self):
        assert STRATIFIED.alpha is None
        assert not STRATIFIED.het_aware

    def test_het_aware_alpha_one(self):
        assert HET_AWARE.alpha == 1.0
        assert HET_AWARE.het_aware

    def test_het_energy_aware_default(self):
        s = het_energy_aware()
        assert s.alpha == ALPHA_FPM
        assert s.name == "Het-Energy-Aware"

    def test_het_energy_aware_custom_alpha(self):
        assert het_energy_aware(ALPHA_COMPRESSION).alpha == ALPHA_COMPRESSION

    def test_paper_alphas_recorded(self):
        assert PAPER_ALPHA_FPM == 0.999
        assert PAPER_ALPHA_COMPRESSION == 0.995

    def test_baselines_placements(self):
        assert RANDOM.placement == "random"
        assert ROUND_ROBIN.placement == "round-robin"


class TestValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            Strategy(name="x", alpha=1.5)
        with pytest.raises(ValueError):
            Strategy(name="x", alpha=-0.1)

    def test_bad_placement(self):
        with pytest.raises(ValueError):
            Strategy(name="x", alpha=None, placement="hashmod")

    def test_round_robin_takes_no_alpha(self):
        # Round-robin deals equal shares whatever a plan says, so a
        # het-aware round-robin run would report sizes that never ran.
        with pytest.raises(ValueError, match="round-robin"):
            Strategy(name="x", alpha=1.0, placement="round-robin")
        with pytest.raises(ValueError, match="round-robin"):
            HET_AWARE.with_placement("round-robin")
        assert STRATIFIED.with_placement("round-robin").alpha is None

    def test_with_placement(self):
        s = HET_AWARE.with_placement("similar")
        assert s.placement == "similar"
        assert s.alpha == HET_AWARE.alpha
        assert HET_AWARE.placement == "representative"  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            STRATIFIED.alpha = 0.5  # type: ignore[misc]

"""Figure 6: Pareto frontiers across support thresholds (tree + text).

The paper's generalization check: for different support settings of
the same workload, sweeping α still traces a clean time–energy
frontier. Shape: every support level shows the same α=1-fastest /
low-α-greenest structure.
"""

from conftest import run_once, save_result

from repro.bench.experiments import ARTEFACTS


def test_fig6_support_sweep(benchmark):
    series, text = run_once(benchmark, ARTEFACTS["fig6_support_sweep"])
    save_result("fig6_support_sweep", text)

    assert len(series) == 4
    for fs in series:
        makespans = [m for _, m, _ in fs.points]
        energies = [e for _, _, e in fs.points]
        assert makespans[0] == min(makespans)
        assert energies[0] == max(energies) or energies[0] >= min(energies)
        # The frontier exists at every support threshold: the time and
        # energy extremes are achieved by different α values.
        assert makespans.index(min(makespans)) != energies.index(min(energies))

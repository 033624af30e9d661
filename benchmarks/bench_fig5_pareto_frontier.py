"""Figure 5: measured time–energy Pareto frontiers (8 partitions).

For the tree, text and graph workloads, sweeps α from 1 → 0 and plots
(textually) the measured makespan / dirty-energy curve plus the
stratified baseline point. Paper shape: α=1 is the time extreme; as α
falls, runtime rises and dirty energy falls until a floor where the
optimizer piles everything onto the greenest node; the baseline sits
above / right of the frontier (not Pareto-efficient).
"""

from conftest import run_once, save_result

from repro.bench import experiments
from repro.bench.reporting import format_frontier


def test_fig5_pareto_frontiers(benchmark):
    series = run_once(
        benchmark,
        lambda: experiments.fig5_pareto_frontiers(size_scale=0.8, partitions=8),
    )
    blocks = []
    for fs in series:
        blocks.append(
            format_frontier(
                fs.points, baseline=fs.baseline, title=f"FIG 5 — {fs.label}"
            )
        )
    save_result("fig5_pareto_frontiers", "\n\n".join(blocks))

    for fs in series:
        makespans = [m for _, m, _ in fs.points]
        energies = [e for _, _, e in fs.points]
        # α=1 (first point) is the fastest configuration of the sweep.
        assert makespans[0] == min(makespans)
        # The sweep reaches an energy floor no higher than the baseline's
        # energy, and the α=0 end stays on that floor (saturation).
        assert min(energies) <= fs.baseline[1] * 1.05
        assert energies[-1] <= min(energies) * 1.10
        # Baseline is never strictly better than the whole frontier.
        assert any(m <= fs.baseline[0] for m in makespans)

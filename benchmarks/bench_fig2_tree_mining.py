"""Figure 2: frequent tree mining on the SwissProt and Treebank analogs.

Regenerates the paper's four panels — execution time and dirty energy
per dataset, three strategies, partition counts {4, 8, 16}. The shape
to verify: Het-Aware is fastest (paper: up to 43% faster at 8
partitions), Het-Energy-Aware trades some speed for the lowest dirty
energy while still beating the stratified baseline's runtime.
"""

from conftest import run_once, save_result

from repro.bench.experiments import ARTEFACTS


def test_fig2_tree_mining(benchmark):
    rows, text = run_once(benchmark, ARTEFACTS["fig2_tree_mining"])
    save_result("fig2_tree_mining", text)
    # Shape assertions per dataset at 8 partitions.
    for dataset in ("swissprot", "treebank"):
        at8 = {
            r.strategy: r for r in rows if r.dataset == dataset and r.partitions == 8
        }
        assert at8["Het-Aware"].makespan_s < at8["Stratified"].makespan_s
        assert (
            at8["Het-Energy-Aware"].dirty_energy_kj
            < at8["Het-Aware"].dirty_energy_kj
        )

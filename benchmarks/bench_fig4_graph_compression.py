"""Figure 4: WebGraph compression on the UK and Arabic analogs.

Regenerates the six panels: execution time, dirty energy and
compression ratio on both webgraphs. Paper shape: Het-Aware up to 51%
faster (Arabic, 8 partitions); Het-Energy-Aware gives up most of the
speedup but cuts dirty energy (paper: −26%); all heterogeneity-aware
schemes match the baseline's compression ratio.
"""

from conftest import run_once, save_result

from repro.bench.experiments import ARTEFACTS


def test_fig4_graph_compression(benchmark):
    rows, text = run_once(benchmark, ARTEFACTS["fig4_graph_compression"])
    save_result("fig4_graph_compression", text)
    at8 = {
        (r.dataset, r.strategy): r for r in rows if r.partitions == 8
    }
    for ds in ("uk", "arabic"):
        base = at8[(ds, "Stratified")]
        het = at8[(ds, "Het-Aware")]
        hea = at8[(ds, "Het-Energy-Aware")]
        assert het.makespan_s < base.makespan_s
        assert hea.dirty_energy_kj < het.dirty_energy_kj
        # Quality preserved within 3%.
        assert abs(
            het.quality["compression_ratio"] - base.quality["compression_ratio"]
        ) < 0.03 * base.quality["compression_ratio"]

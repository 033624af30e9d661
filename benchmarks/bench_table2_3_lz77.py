"""Tables II and III: LZ77 compression on UK and Arabic, 8 partitions.

Paper shape: LZ77 is fast, so heterogeneity-aware gains are modest
(18 s → 11 s on UK; 38 s → 35 s on Arabic), and the compression ratios
of all three strategies are comparable.
"""

from conftest import run_once, save_result

from repro.bench.experiments import ARTEFACTS


def test_table2_3_lz77(benchmark):
    rows, text = run_once(benchmark, ARTEFACTS["table2_3_lz77"])
    save_result("table2_3_lz77", text)
    for ds in ("uk", "arabic"):
        per = {r.strategy: r for r in rows if r.dataset == ds}
        base = per["Stratified"]
        het = per["Het-Aware"]
        assert het.makespan_s <= base.makespan_s
        # Ratios comparable across strategies (paper: 18.33 vs 18.2 vs 18.01).
        ratios = [r.quality["compression_ratio"] for r in per.values()]
        assert max(ratios) - min(ratios) < 0.1 * max(ratios)

"""Figure 3: Apriori text mining on the RCV1 analog.

Regenerates execution time and dirty energy for the three strategies
at {4, 8, 16} partitions. Paper shape: Het-Aware up to 37% faster at 8
partitions; Het-Energy-Aware cuts runtime ~31% while consuming ~14%
less dirty energy than the stratified baseline.
"""

from conftest import run_once, save_result

from repro.bench.experiments import ARTEFACTS


def test_fig3_text_mining(benchmark):
    rows, text = run_once(benchmark, ARTEFACTS["fig3_text_mining"])
    save_result("fig3_text_mining", text)
    at8 = {r.strategy: r for r in rows if r.partitions == 8}
    assert at8["Het-Aware"].makespan_s < at8["Stratified"].makespan_s
    hea = at8["Het-Energy-Aware"]
    assert hea.makespan_s < at8["Stratified"].makespan_s

"""Ablation: placement policy (representative vs random vs round-robin).

Quantifies the paper's Section I/II motivation: with identical equal
sizes, stratified-representative partitions keep the candidate union
(and thus the global-scan work) small, while naive placements inflate
it; for compression, similar-together placement buys ratio that random
placement loses.
"""

from conftest import run_once, save_result

from repro.bench.harness import StrategyRunner
from repro.bench.reporting import format_table
from repro.core.strategies import RANDOM, ROUND_ROBIN, STRATIFIED
from repro.data.datasets import load_dataset


def _run():
    mining = StrategyRunner.for_workload(load_dataset("rcv1"), "apriori", 0.1)
    compression = StrategyRunner.for_workload(load_dataset("uk"), "webgraph")
    rows = []
    for strategy in (STRATIFIED, RANDOM, ROUND_ROBIN):
        rows.append(mining.row(strategy, 8))
    for strategy in (
        STRATIFIED.with_placement("similar"),
        RANDOM,
        ROUND_ROBIN,
    ):
        rows.append(compression.row(strategy, 8))
    return rows


def test_ablation_placement(benchmark):
    rows = run_once(benchmark, _run)
    save_result(
        "ablation_placement",
        format_table(rows, "ABLATION — placement policy (equal sizes, 8 partitions)"),
    )
    mining = {r.strategy: r for r in rows if r.workload == "apriori-local"}
    compression = {r.strategy: r for r in rows if r.workload != "apriori-local"}
    # Representative placement never generates more candidates than the
    # naive placements (within 10% noise).
    strat_fp = mining["Stratified"].quality["false_positives"]
    assert strat_fp <= mining["Random"].quality["false_positives"] * 1.1
    assert strat_fp <= mining["Round-Robin"].quality["false_positives"] * 1.1
    # Similar-together placement compresses at least as well as naive.
    assert (
        compression["Stratified"].quality["compression_ratio"]
        >= compression["Random"].quality["compression_ratio"]
    )

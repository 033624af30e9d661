"""Table I: dataset inventory (synthetic analogs, laptop scale)."""

from conftest import run_once, save_result

from repro.bench.experiments import ARTEFACTS


def test_table1_datasets(benchmark):
    rows, text = run_once(benchmark, ARTEFACTS["table1_datasets"])
    save_result("table1_datasets", text)
    assert len(rows) == 5

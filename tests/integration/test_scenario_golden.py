"""Golden characterisation of the path from a scenario's name to its
result row.

Written against the code *before* the workload catalogue, the single
two-phase run, the single α sweep and ``RunReport.quality`` existed:
every file under ``golden/`` was written by the parent commit
(``python tests/integration/test_scenario_golden.py`` with the
parent's ``src`` on ``PYTHONPATH``), where the CLI, the service and
``bench/experiments.py`` each spelled out their own workload
constructors, placement rule, unit rates and α loop.

Who builds the scenario must not change what it computes: the stdout
of ``repro compare|frontier|profile``, the result payload of every
service workload at the baseline and at two operating points, and the
``repro obs report`` text over one recorded trace equal the recorded
ones byte for byte / key for key.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.service.executor import build_executor
from repro.service.jobs import JobSpec

GOLDEN = pathlib.Path(__file__).parent / "golden"

CLI_CASES = {
    "compare": "compare --dataset rcv1 --scale 0.2 --partitions 4",
    "frontier": (
        "frontier --dataset uk --workload webgraph --scale 0.2 --partitions 4 "
        "--alphas 1.0,0.99,0.0"
    ),
    "profile": "profile --dataset swissprot --scale 0.2 --partitions 4",
}

DATASET_FOR = {
    "apriori": "rcv1",
    "eclat": "rcv1",
    "fpgrowth": "rcv1",
    "treemining": "swissprot",
    "webgraph": "uk",
    "lz77": "uk",
}
ALPHAS = (None, 1.0, 0.99)


def _cli_stdout(capsys, argv: str) -> str:
    assert main(argv.split()) == 0
    return capsys.readouterr().out


def _service_payloads() -> dict[str, dict]:
    executor = build_executor("simulated")
    out = {}
    for workload, dataset in DATASET_FOR.items():
        for alpha in ALPHAS:
            spec = JobSpec(
                workload=workload, dataset=dataset, support=0.2, alpha=alpha,
                size_scale=0.2,
            )
            spec.validate()
            out[f"{workload}@{alpha}"] = executor.run(spec)
    return out


def _obs_report(capsys, monkeypatch) -> str:
    # Relative path: the report's title line repeats the path it was given.
    monkeypatch.chdir(GOLDEN)
    return _cli_stdout(capsys, "obs report recorded.trace.jsonl")


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_stdout_unchanged(name, capsys):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _cli_stdout(capsys, CLI_CASES[name]) == expected


def test_service_payloads_unchanged():
    expected = json.loads((GOLDEN / "service_payloads.json").read_text())
    got = _service_payloads()
    assert got.keys() == expected.keys()
    for key, payload in got.items():
        # Through JSON and back, as a client sees it.
        assert json.loads(json.dumps(payload)) == expected[key], key


def test_obs_report_unchanged(capsys, monkeypatch):
    expected = (GOLDEN / "obs_report.txt").read_text(encoding="utf-8")
    assert _obs_report(capsys, monkeypatch) == expected


if __name__ == "__main__":  # record the goldens (run against the parent)
    import contextlib
    import io
    import os

    def _capture(argv: str) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv.split()) == 0
        return buf.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CLI_CASES.items():
        (GOLDEN / f"{case}.txt").write_text(_capture(argv), encoding="utf-8")
    (GOLDEN / "service_payloads.json").write_text(
        json.dumps(_service_payloads(), indent=1, sort_keys=True) + "\n"
    )
    trace = GOLDEN / "recorded.trace.jsonl"
    if not trace.exists():
        _capture(
            f"compare --dataset rcv1 --scale 0.05 --partitions 2 --trace {trace}"
        )
        os.remove(f"{trace}.chrome.json")
    os.chdir(GOLDEN)
    (GOLDEN / "obs_report.txt").write_text(
        _capture("obs report recorded.trace.jsonl"), encoding="utf-8"
    )

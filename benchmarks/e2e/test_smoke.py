"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Tiny sizes and sub-second windows, well under 30 s in all; tier-1
(``testpaths = tests``) does not collect it. The numbers mean nothing
at this size — the test checks that every workload runs the production
path without a failed op, emits every metric the spec lists under a
legal name, and that inputs are a pure function of ``--seed``.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (REPO / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from e2ebench import spec  # noqa: E402
from e2ebench.harness import KINDS  # noqa: E402
from e2ebench.runner import run_workload  # noqa: E402
from e2ebench.workloads import WORKLOAD_NAMES, build_ops  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SMOKE = {"seconds": 1.0, "scale": 0.3}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_every_metric(workload):
    result = run_workload(workload, 3, SMOKE["seconds"], True, scale=SMOKE["scale"])
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 1
    assert set(result["end_to_end"]) == {name for name, *_ in spec.END_TO_END}
    assert all(value > 0 for value in result["end_to_end"].values())
    assert set(result["per_layer"]) == {name for name, *_ in spec.PER_LAYER}
    layer = result["per_layer"]
    assert layer["cluster.engines.pools_created"] == 1
    assert layer["cluster.engines.run_job_s"] > 0
    # Library ops are one span each; service ops also wait on the load
    # generator's 25 ms polling, a large share of a job this small.
    assert layer["trace.coverage_frac"] >= (0.9 if workload.startswith("batch-") else 0.5)
    # The layers a workload bypasses read zero.
    if workload in ("batch-warm", "svc-steady"):
        assert layer["stratify.sketch_s"] == 0
    if workload.startswith("svc-"):
        assert layer["kvstore.round_trips"] == 0
        assert layer["service.manager.rejected"] == 0
        assert layer["service.http.polls_per_job"] >= 1
    else:
        assert layer["kvstore.round_trips"] > 0
        assert layer["service.http.submit_rtt_s"] == 0
    if workload == "svc-steady":
        assert layer["service.executor.prepare_s"] == 0


def test_names_and_units_are_legal():
    document = spec.benchmark_json()
    names = [w["name"] for w in document["workloads"]]
    metrics = document["end_to_end"] + document["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_committed_spec_matches():
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert tuple(KINDS) == spec.JOB_KINDS  # spec.py cannot import the harness


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_same_inputs(workload):
    first = build_ops(workload, 7, spec.RUN_SECONDS)
    assert first == build_ops(workload, 7, spec.RUN_SECONDS)
    assert first != build_ops(workload, 8, spec.RUN_SECONDS)


def test_driver_contract_and_bare_directory(tmp_path):
    """The driver's command line prints one JSON object last; in a
    directory holding only BENCHMARK.json and the benchmark's own
    files it exits non-zero without printing a result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", "batch-warm", "--seed", "5",
        "--seconds", "1", "--trace", "0", "--scale", str(SMOKE["scale"]),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=REPO)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(last["correct"], bool) and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {name for name, *_ in spec.END_TO_END}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())

    bare = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    command[1] = str(bare / "run.py")
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

"""Golden characterisation of the per-node books, exact to the bit.

Recorded while the trace report and the live estimator each kept their
own per-node fold of ``task.execute`` spans beside the metrics
registry's; reading the books off the registry had to pass it
unmodified. Pinned, for two deterministic traced runs (the
``simulated`` and ``worksteal`` scenarios of
:mod:`tests.obs.test_metrics_characterisation`):

- the report's ``node_rows()``, ``split()`` and task-span count, and
  the per-node table and energy-split lines of the rendered report;

and, over one fixed span stream with two interleaved workloads, a
zero-runtime task and a zero-work task, ``LivePlane.snapshot()["nodes"]``.

Values are compared as their JSON text, so a float that moves in its
last bit, or an int that becomes a float, fails. Run this module as a
script to re-record the golden.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

import repro.obs as obs
from repro.obs.live import LivePlane
from repro.obs.report import TraceAggregate, render_report
from tests.obs.test_metrics_characterisation import SCENARIOS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "node_books.json"
TRACES = ("simulated", "worksteal")


def _report_section(text: str) -> list[str]:
    """The per-node table and the energy-split line of a rendered report."""
    lines = text.splitlines()
    start = lines.index("== per-node tasks & energy ==")
    end = next(i for i, line in enumerate(lines) if line.startswith("energy split:"))
    return lines[start : end + 1]


def report_books(name: str) -> dict:
    run, _ = SCENARIOS[name]
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        run()
        spans = obs.get_tracer().finished_spans()
    finally:
        obs.disable()
    agg = TraceAggregate()
    for span in spans:
        agg.add(span)
    text = render_report(spans)
    (header_tasks,) = re.findall(r"; (\d+) task spans", text)
    return {
        "node_rows": agg.node_rows(),
        "split": agg.split(),
        "task_spans": agg.task_spans,
        "header_task_spans": int(header_tasks),
        "rendered": _report_section(text),
    }


def _task(node: int, workload: str, work: float, runtime: float, watts: float,
          dirty_frac: float) -> dict:
    energy = watts * runtime
    attrs = {
        "partition_id": 0,
        "node_id": node,
        "work_units": work,
        "runtime_s": runtime,
        "energy_j": energy,
        "dirty_energy_j": dirty_frac * energy,
        "green_energy_j": energy - dirty_frac * energy,
        "workload": workload,
    }
    return {"name": "task.execute", "duration_s": runtime, "attrs": attrs}


def live_stream() -> list[dict]:
    """Three nodes, two workloads interleaved task by task (each with its
    own per-item cost), one zero-runtime task, one zero-work task and a
    span the estimator does not read."""
    watts = {0: 440.0, 1: 345.0, 2: 155.0}
    cost = {"sum": 1.3e-4, "sort": 3.7e-4}
    records: list[dict] = [
        {"name": "stage.sketch", "duration_s": 0.25, "attrs": {"items": 10}}
    ]
    for i in range(18):
        node = i % 3
        workload = ("sum", "sort")[(i // 3) % 2]
        work = 40.0 + 23.0 * i + 7.0 * node
        runtime = 0.013 * (node + 1) + work * cost[workload] * (1.0 + 0.5 * node)
        records.append(
            _task(node, workload, work, runtime, watts[node] * (1.0 + 0.01 * i),
                  0.3 + 0.05 * node)
        )
        if i == 7:
            records.append(_task(1, "sum", 90.0, 0.0, watts[1], 0.35))
        if i == 11:
            records.append(_task(2, "sort", 0.0, 0.41, watts[2], 0.4))
    return records


def live_nodes() -> list[dict]:
    plane = LivePlane()
    for record in live_stream():
        plane.publish_span(record)
    return plane.snapshot()["nodes"]


def record() -> dict:
    return {
        "report": {name: report_books(name) for name in TRACES},
        "live_nodes": live_nodes(),
    }


def _text(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", TRACES)
def test_report_books_unchanged(name, golden):
    got = report_books(name)
    want = golden["report"][name]
    for key in want:
        assert _text(got[key]) == _text(want[key]), key
    assert got["task_spans"] == got["header_task_spans"]


def test_live_nodes_unchanged(golden):
    assert _text(live_nodes()) == _text(golden["live_nodes"])


if __name__ == "__main__":  # record the golden
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")

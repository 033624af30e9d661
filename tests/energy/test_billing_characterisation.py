"""Golden characterisation of what the engines bill, exact to the bit.

Recorded while each node billed its tasks through a separate
accountant object that kept its own copy of the node's trace; moving
the billing onto the node had to pass it unmodified. Pinned, for six
clusters — ``paper_cluster(4)``, ``paper_cluster(8)``,
``cluster_at_hour(4, 20.0)``, ``rack_level_cluster(4)`` and
``iswitch_cluster(4)`` — each running apriori/rcv1, webgraph/uk and
treemining/swissprot at scale 0.3 under Stratified, Het-Aware and
α = 0.99:

- every task's ``(node_id, start_s, runtime_s, energy_j,
  dirty_energy_j)``;
- each job's makespan, total energy and total dirty energy;
- each cluster's ``dirty_power_coefficients()``.

Values are compared as their JSON text (every float as its ``repr``),
so a float that moves in its last bit fails. Run this module as a
script to re-record the golden.
"""

from __future__ import annotations

import json
import pathlib
from functools import lru_cache

import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import SimulatedEngine
from repro.cluster.scenarios import cluster_at_hour, iswitch_cluster, rack_level_cluster
from repro.core.framework import ParetoPartitioner
from repro.core.strategies import HET_AWARE, STRATIFIED, Strategy
from repro.data.datasets import load_dataset
from repro.workloads.catalog import WORKLOADS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "billing.json"
SCALE = 0.3

CLUSTERS = {
    "paper_cluster(4)": lambda: paper_cluster(4),
    "paper_cluster(8)": lambda: paper_cluster(8),
    "cluster_at_hour(4, 20.0)": lambda: cluster_at_hour(4, 20.0),
    "rack_level_cluster(4)": lambda: rack_level_cluster(4),
    "iswitch_cluster(4)": lambda: iswitch_cluster(4),
}
#: ``(workload, dataset, support)``.
JOBS = (("apriori", "rcv1", 0.1), ("webgraph", "uk", None), ("treemining", "swissprot", 0.12))


@lru_cache(maxsize=None)
def _dataset(name: str):
    return load_dataset(name, size_scale=SCALE)


def _strategies(workload: str) -> list[Strategy]:
    placement = WORKLOADS[workload].placement
    return [
        STRATIFIED.with_placement(placement),
        HET_AWARE.with_placement(placement),
        Strategy(name="alpha=0.99", alpha=0.99, placement=placement),
    ]


def cluster_entries(cluster_name: str) -> dict[str, list]:
    """The k vector and every job's books on one cluster, keyed by line."""
    out: dict[str, list] = {}
    for workload, dataset_name, support in JOBS:
        spec = WORKLOADS[workload]
        engine = SimulatedEngine(CLUSTERS[cluster_name](), unit_rate=spec.unit_rate)
        if workload == JOBS[0][0]:
            out[f"k {cluster_name}"] = engine.cluster.dirty_power_coefficients().tolist()
        dataset = _dataset(dataset_name)
        pp = ParetoPartitioner(
            engine, kind=dataset.kind, num_strata=12, seed=0, stage_via_kv=False
        )
        prep = pp.prepare(dataset.items, spec.build(support))
        for strategy in _strategies(workload):
            job = pp.execute(
                dataset.items, spec.build(support), strategy, prepared=prep
            ).job
            key = f"{cluster_name} {workload}/{dataset_name} {strategy.name}"
            out[f"job {key}"] = [job.makespan_s, job.total_energy_j, job.total_dirty_energy_j]
            for i, t in enumerate(job.tasks):
                out[f"task {key} {i}"] = [
                    t.node_id,
                    t.start_s,
                    t.runtime_s,
                    t.energy_j,
                    t.dirty_energy_j,
                ]
    return out


def render(entries: dict[str, list]) -> str:
    """One JSON object, one entry per line."""
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
    return "{\n" + body + "\n}\n"


def _golden_lines(cluster_name: str) -> list[str]:
    golden = GOLDEN.read_text().splitlines()
    return [
        line.rstrip(",")
        for line in golden
        if line.startswith(f'"k {cluster_name}"')
        or line.startswith(f'"job {cluster_name} ')
        or line.startswith(f'"task {cluster_name} ')
    ]


@pytest.mark.parametrize("cluster_name", list(CLUSTERS))
def test_billing_matches_golden(cluster_name):
    got = render(cluster_entries(cluster_name)).splitlines()[1:-1]
    want = _golden_lines(cluster_name)
    assert [line.rstrip(",") for line in got] == want


if __name__ == "__main__":
    entries: dict[str, list] = {}
    for name in CLUSTERS:
        entries.update(cluster_entries(name))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(entries))
    print(f"wrote {GOLDEN}: {sum(k.startswith('task ') for k in entries)} task rows")

"""Output checks, all outside the timed window.

Each check returns a list of human-readable problems; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import os
from typing import Any

from repro.cluster import SimulatedEngine, paper_cluster
from repro.core import ParetoPartitioner
from repro.data import load_dataset

from . import harness
from .harness import KINDS
from .workloads import Sample

_SHM_DIR = "/dev/shm"


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments python created."""
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith("psm_")}
    except OSError:
        return set()  # no /dev/shm here: the engine fell back to pickling


def check_samples(samples: list[Sample], expected_ops: int, enforce_spread: bool) -> list[str]:
    """Plans, energies and answers of every op in the window."""
    problems: list[str] = []
    if len(samples) != expected_ops:
        problems.append(f"{expected_ops} ops submitted, {len(samples)} answered")
    for s in samples:
        if not s.ok:
            problems.append(f"op {s.op.index} ({s.op.kind}) failed: {s.error}")
            continue
        d = s.detail
        if d.get("n") is not None and sum(d["sizes"]) != d["n"]:
            problems.append(f"op {s.op.index}: plan {d['sizes']} does not sum to {d['n']}")
        if "budget_j" in d:
            if d["dirty_j"] > d["budget_j"]:
                problems.append(f"op {s.op.index}: budget plan overdraws {d['dirty_j']:.1f} J")
            continue
        if not d["energy_j"] >= d["dirty_j"] >= 0:
            problems.append(f"op {s.op.index}: energy {d['energy_j']} < dirty {d['dirty_j']}")
        if enforce_spread and d["alpha"] == 1.0 and s.op.kind != "cold":
            if harness.nonempty(d["sizes"]) < harness.MIN_PARTITIONS:
                problems.append(f"op {s.op.index}: degenerate alpha=1 plan {d['sizes']}")
    return problems


def degenerate_plans(samples: list[Sample]) -> int:
    return sum(
        1
        for s in samples
        if s.ok
        and s.detail.get("alpha") == 1.0
        and harness.nonempty(s.detail["sizes"]) < harness.MIN_PARTITIONS
    )


def check_mining(samples: list[Sample], datasets: dict[str, Any]) -> list[str]:
    """For one op per mining kind, the distributed two-phase answer
    equals mining the whole dataset as a single partition.

    Library samples carry the frequent set and their items; service
    samples carry its size and ``datasets`` maps kind → items.
    """
    problems: list[str] = []
    for kind in (k for k in KINDS.values() if k.mining):
        sample = next(
            (s for s in samples if s.ok and s.op.kind == kind.name and "energy_j" in s.detail),
            None,
        )
        if sample is None:
            continue
        items = sample.detail.get("items") or datasets[kind.name]
        reference = kind.workload().run(items).output.counts
        distributed = sample.detail.get("output")
        if distributed is not None:
            if distributed != reference:
                problems.append(f"{kind.name}: distributed frequent set differs from single-partition run")
        elif sample.detail["frequent"] != len(reference):
            problems.append(
                f"{kind.name}: service found {sample.detail['frequent']} frequent patterns, "
                f"single-partition run {len(reference)}"
            )
        if sum(sample.detail["sizes"]) != len(items):
            problems.append(f"{kind.name}: plan sums to {sum(sample.detail['sizes'])}, N={len(items)}")
    return problems


def check_audit(audit: dict[str, Any], submitted: int, shm_before: set[str]) -> list[str]:
    """After shutdown: one pool, nothing leaked, every submission
    accepted and succeeded."""
    problems: list[str] = []
    if audit["pools_created"] != 1:
        problems.append(f"{audit['pools_created']} worker pools created, expected 1")
    if audit.get("live_segments", 0) != 0:
        problems.append(f"{audit['live_segments']} dataplane segments live after shutdown")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"shared-memory segments left behind: {sorted(leaked)}")
    states = audit.get("states")
    if states is not None and states != {"SUCCEEDED": submitted}:
        problems.append(f"job table {states}, expected {submitted} SUCCEEDED and nothing else")
    return problems


def simulated_gains(scale: float) -> tuple[float, float, list[str]]:
    """On a deterministic ``SimulatedEngine`` replica of each kind:
    Het-Aware's makespan ≤ Stratified's and Het-Energy-Aware's dirty
    energy ≤ Het-Aware's. Returns the two gains (geometric means over
    kinds of 1 − ratio, so they repeat exactly) and any violation."""
    problems: list[str] = []
    makespan_ratios, dirty_ratios = [], []
    cluster = paper_cluster(
        harness.NUM_NODES, seed=0, task_overhead_s=harness.TASK_OVERHEAD_S
    )
    engine = SimulatedEngine(cluster)
    for kind in KINDS.values():
        dataset = load_dataset(kind.dataset, size_scale=0.5 * kind.cold_scale * scale, seed=0)
        pp = ParetoPartitioner(engine, kind=dataset.kind, stage_via_kv=False)
        prepared = pp.prepare(dataset.items, kind.workload())
        stratified, het_aware, het_energy = (
            kind.execute(pp, dataset.items, s, prepared) for s in kind.strategies()
        )
        if het_aware.makespan_s > stratified.makespan_s:
            problems.append(f"{kind.name}: Het-Aware makespan above Stratified's")
        if het_energy.total_dirty_energy_j > het_aware.total_dirty_energy_j:
            problems.append(f"{kind.name}: Het-Energy-Aware dirty energy above Het-Aware's")
        makespan_ratios.append(het_aware.makespan_s / stratified.makespan_s)
        dirty_ratios.append(het_energy.total_dirty_energy_j / het_aware.total_dirty_energy_j)
    return (
        1.0 - harness.geomean(makespan_ratios),
        1.0 - harness.geomean(dirty_ratios),
        problems,
    )

"""What a cached scenario holds: columns, not records.

The build process returns each dataset key as ``(kind, EncodedDataset,
Stratification)``, and ``ScenarioExecutor`` keeps that and the
``PreparedInput`` built from it. The service process never holds a
record: no cached value reaches one, and what a scenario retains on
the heap is of the order of its staged bytes (records cost 2.5–10×
their columns). Runs on the simulated engine, so the build process is
the only child.
"""

from __future__ import annotations

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro.cluster.engines import ExecutionEngine
from repro.data.datasets import load_dataset
from repro.kvstore.codec import EncodedDataset, encode_dataset
from repro.service.executor import NUM_STRATA, build_executor
from repro.service.jobs import JobSpec
from repro.stratify.stratifier import Stratifier

#: One spec per record shape: flat text sets, graph adjacency lists,
#: trees (whose ``count_records`` converts them for phase 2).
WARM = (
    JobSpec(workload="fpgrowth", dataset="rcv1", size_scale=1.0, support=0.1),
    JobSpec(workload="webgraph", dataset="uk", size_scale=0.8),
    JobSpec(workload="treemining", dataset="swissprot", size_scale=0.4, support=0.12),
)
#: Cold: a scenario seed no warm spec used, so a fresh dataset key.
COLD = JobSpec(workload="lz77", dataset="uk", size_scale=0.5, seed=7)


@pytest.fixture(scope="module")
def executor():
    ex = build_executor("simulated")
    for spec in WARM:
        ex.run(spec)
        ex.run(JobSpec(**{**spec.to_dict(), "alpha": None}))
    ex.run(COLD)
    yield ex
    ex.close()


def _cached(executor):
    """Every value the two caches hold, as built."""
    return [
        future.result()
        for table in (executor._datasets, executor._prepared)
        for future in table.values()
    ]


def _ints(seq) -> bool:
    return bool(seq) and all(type(v) is int for v in seq)


def _is_record(obj) -> bool:
    """A decoded record: a flat list/tuple of ints (a set or an
    adjacency list) or a ``(parent, labels)`` tree of two."""
    if isinstance(obj, tuple) and len(obj) == 2 and all(isinstance(p, tuple) for p in obj):
        return all(map(_ints, obj))
    return isinstance(obj, (list, tuple)) and _ints(obj)


def _is_record_list(obj) -> bool:
    return isinstance(obj, (list, tuple)) and any(map(_is_record, obj))


def _reachable(roots):
    """Objects reachable from ``roots``, not descending into code,
    modules or the shared engine (none of them is per scenario)."""
    stop = (type, types.ModuleType, types.FunctionType, ExecutionEngine)
    seen, stack, out = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, stop):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def test_no_cached_value_references_a_record(executor):
    assert len(executor._datasets) == 4 and len(executor._prepared) == 4
    for kind, encoded, _stratification in (f.result() for f in executor._datasets.values()):
        assert isinstance(encoded, EncodedDataset) and encoded.kind == kind
    for _pp, prepared in (f.result() for f in executor._prepared.values()):
        assert not hasattr(prepared, "items")
        assert isinstance(prepared.staged, EncodedDataset)
    records = [obj for obj in _reachable(_cached(executor)) if _is_record_list(obj)]
    assert records == []


@pytest.mark.parametrize("spec", [*WARM, COLD], ids=lambda s: s.workload)
def test_the_build_is_the_encoding_and_stratification_of_the_records(executor, spec):
    key = (spec.dataset, spec.size_scale, spec.seed)
    kind, encoded, stratification = executor._datasets[key].result()
    dataset = load_dataset(spec.dataset, size_scale=spec.size_scale, seed=spec.seed)
    expected = encode_dataset(kind, dataset.items)
    assert kind == dataset.kind
    assert encoded.values.dtype == expected.values.dtype
    assert encoded.values.tobytes() == expected.values.tobytes()
    assert encoded.offsets.tobytes() == expected.offsets.tobytes()
    strata = Stratifier(kind=kind, num_strata=NUM_STRATA, seed=spec.seed).stratify(
        dataset.items
    )
    assert np.array_equal(stratification.labels, strata.labels)
    assert len(stratification.strata) == len(strata.strata)
    assert all(map(np.array_equal, stratification.strata, strata.strata))
    _pp, prepared = executor.prepared_for(spec)
    assert prepared.staged is encoded
    assert prepared.num_items == len(dataset.items)


@pytest.mark.parametrize("spec", WARM, ids=lambda s: s.workload)
def test_a_scenario_retains_at_most_twice_its_staged_bytes(spec):
    """Build, prepare and run a fresh scenario under ``tracemalloc``:
    what the service process keeps afterwards is the encoding plus the
    plan state, not records."""
    ex = build_executor("simulated")
    try:
        ex.run(JobSpec(workload="apriori", dataset="rcv1", size_scale=0.05, support=0.2))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ex.run(spec)
            ex.run(spec)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        _pp, prepared = ex.prepared_for(spec)
        encodings = {id(prepared.staged): prepared.staged, id(prepared.counted): prepared.counted}
        staged = sum(e.values.nbytes + e.offsets.nbytes for e in encodings.values())
        assert 0 < retained <= 2 * staged
    finally:
        ex.close()

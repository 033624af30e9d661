"""Golden characterisation of partition staging.

Written against the code *before* a staged partition became one framed
buffer: every literal in ``GOLDEN`` was printed by the parent commit
(``python tests/core/test_staging_golden.py`` with the parent's ``src``
on ``PYTHONPATH``), where ``_materialize`` built Python record lists,
round-tripped them record by record through the KV store when
``stage_via_kv`` was set and handed the engine plain lists, and phase 2
re-ran ``count_records`` over every partition in the parent process.

How a partition travels must not change what a job computes: for all
six service workloads and both values of ``stage_via_kv`` the plan,
the makespan, both energies, the merged answer and the two-phase
``extra`` equal the recorded ones. Only ``kv_round_trips`` may differ,
and only downwards. The ``ProcessPoolEngine`` leg runs the equal-split
strategy (its plan does not depend on measured wall time) and checks
the merged answer, which for mining is also independent of the plan.
"""

import hashlib

import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.engines import ProcessPoolEngine, SimulatedEngine
from repro.core.framework import ParetoPartitioner
from repro.core.strategies import HET_AWARE, STRATIFIED
from repro.data.datasets import load_dataset
from repro.service.jobs import SERVICE_WORKLOADS, build_workload, default_placement

DATASET_FOR = {
    "apriori": "rcv1",
    "eclat": "rcv1",
    "fpgrowth": "rcv1",
    "treemining": "swissprot",
    "webgraph": "uk",
    "lz77": "uk",
}
SUPPORT = 0.2
SCALE = 0.2
POOL_WORKLOADS = ("lz77", "fpgrowth")


def _answer(merged):
    """A comparable literal for a merged output: the compression
    summary's fields, or size + digest of the sorted frequent set."""
    if hasattr(merged, "ratio"):
        return (merged.raw_bytes, merged.compressed_bytes, merged.num_partitions)
    digest = hashlib.blake2b(repr(sorted(merged.items())).encode(), digest_size=8)
    return (len(merged), digest.hexdigest())


def _run(engine, name, strategy, stage_via_kv):
    dataset = load_dataset(DATASET_FOR[name], size_scale=SCALE, seed=0)
    pp = ParetoPartitioner(
        engine, kind=dataset.kind, num_strata=6, seed=0, stage_via_kv=stage_via_kv
    )
    workload = build_workload(name, SUPPORT)
    prepared = pp.prepare(dataset.items, workload)
    strategy = strategy.with_placement(default_placement(name))
    # Twice over one PreparedInput: the second run is the warm repeat.
    pp.execute(dataset.items, workload, strategy, prepared=prepared)
    return pp.execute(dataset.items, workload, strategy, prepared=prepared)


def _simulated(name, strategy, stage_via_kv):
    # The e2e benchmark's cluster: at 0.02 s of task overhead the α=1
    # plans spread over several nodes instead of collapsing onto one.
    engine = SimulatedEngine(paper_cluster(4, seed=0, task_overhead_s=0.02), unit_rate=5e4)
    report = _run(engine, name, strategy, stage_via_kv)
    return {
        "sizes": [int(s) for s in report.plan.sizes],
        "makespan_s": report.makespan_s,
        "energy_j": report.total_energy_j,
        "dirty_j": report.total_dirty_energy_j,
        "answer": _answer(report.merged_output),
        "extra": report.extra,
        "kv_round_trips": report.kv_round_trips,
    }


def _pooled(name, stage_via_kv):
    cluster = paper_cluster(4, seed=0, task_overhead_s=0.02)
    with ProcessPoolEngine(cluster, max_workers=2) as engine:
        report = _run(engine, name, STRATIFIED, stage_via_kv)
    return {
        "sizes": [int(s) for s in report.plan.sizes],
        "answer": _answer(report.merged_output),
        "counts": {
            k: report.extra[k]
            for k in ("candidates", "frequent", "false_positives")
            if k in report.extra
        },
    }


def _record():
    """What the parent commit answered; prints the ``GOLDEN`` literals.

    One entry serves both flag values: at the parent the two runs
    already differed in nothing but the round trips (asserted here),
    so ``kv_round_trips`` records the ``stage_via_kv=True`` count."""
    simulated, pooled = {}, {}
    for name in SERVICE_WORKLOADS:
        for strategy in (STRATIFIED, HET_AWARE):
            on, off = (_simulated(name, strategy, flag) for flag in (True, False))
            assert off.pop("kv_round_trips") == 0 < on["kv_round_trips"]
            assert {k: v for k, v in on.items() if k != "kv_round_trips"} == off
            simulated[(name, strategy.name)] = on
    for name in POOL_WORKLOADS:
        pooled[name] = _pooled(name, True)
        assert _pooled(name, False) == pooled[name]
    return simulated, pooled


GOLDEN = {('apriori', 'Stratified'): {'sizes': [60, 60, 60, 60],
                             'makespan_s': 0.47938000000000003,
                             'energy_j': 202.0074,
                             'dirty_j': 58.386776191146836,
                             'answer': (57, '6614533e773b2d20'),
                             'extra': {'candidates': 113,
                                       'frequent': 57,
                                       'false_positives': 56,
                                       'local_makespan_s': 0.32378,
                                       'count_makespan_s': 0.1556},
                             'kv_round_trips': 20},
 ('apriori', 'Het-Aware'): {'sizes': [123, 80, 37, 0],
                            'makespan_s': 0.183195,
                            'energy_j': 167.2722,
                            'dirty_j': 79.09824896447353,
                            'answer': (57, '6614533e773b2d20'),
                            'extra': {'candidates': 107,
                                      'frequent': 57,
                                      'false_positives': 50,
                                      'local_makespan_s': 0.11238999999999999,
                                      'count_makespan_s': 0.070805},
                            'kv_round_trips': 19},
 ('eclat', 'Stratified'): {'sizes': [60, 60, 60, 60],
                           'makespan_s': 0.3316,
                           'energy_j': 147.06879999999998,
                           'dirty_j': 43.34657781003895,
                           'answer': (57, '6614533e773b2d20'),
                           'extra': {'candidates': 113,
                                     'frequent': 57,
                                     'false_positives': 56,
                                     'local_makespan_s': 0.176,
                                     'count_makespan_s': 0.1556},
                           'kv_round_trips': 20},
 ('eclat', 'Het-Aware'): {'sizes': [128, 80, 32, 0],
                          'makespan_s': 0.14483000000000001,
                          'energy_j': 133.759,
                          'dirty_j': 64.17423028994705,
                          'answer': (57, '6614533e773b2d20'),
                          'extra': {'candidates': 121,
                                    'frequent': 57,
                                    'false_positives': 64,
                                    'local_makespan_s': 0.06239,
                                    'count_makespan_s': 0.08244},
                          'kv_round_trips': 19},
 ('fpgrowth', 'Stratified'): {'sizes': [60, 60, 60, 60],
                              'makespan_s': 0.25217999999999996,
                              'energy_j': 121.273,
                              'dirty_j': 37.180279999149406,
                              'answer': (57, '6614533e773b2d20'),
                              'extra': {'candidates': 113,
                                        'frequent': 57,
                                        'false_positives': 56,
                                        'local_makespan_s': 0.09658,
                                        'count_makespan_s': 0.1556},
                              'kv_round_trips': 20},
 ('fpgrowth', 'Het-Aware'): {'sizes': [123, 80, 37, 0],
                             'makespan_s': 0.107905,
                             'energy_j': 105.6319,
                             'dirty_j': 49.818804484717504,
                             'answer': (57, '6614533e773b2d20'),
                             'extra': {'candidates': 107,
                                       'frequent': 57,
                                       'false_positives': 50,
                                       'local_makespan_s': 0.0371,
                                       'count_makespan_s': 0.070805},
                             'kv_round_trips': 19},
 ('treemining', 'Stratified'): {'sizes': [25, 25, 25, 25],
                                'makespan_s': 0.6328400000000001,
                                'energy_j': 359.1761,
                                'dirty_j': 112.08692784968488,
                                'answer': (39, '561b63108db0202c'),
                                'extra': {'candidates': 712,
                                          'frequent': 39,
                                          'false_positives': 673,
                                          'local_makespan_s': 0.25684,
                                          'count_makespan_s': 0.376},
                                'kv_round_trips': 20},
 ('treemining', 'Het-Aware'): {'sizes': [55, 33, 12, 0],
                               'makespan_s': 0.3141816666666667,
                               'energy_j': 204.38369999999998,
                               'dirty_j': 101.52959136676951,
                               'answer': (39, '561b63108db0202c'),
                               'extra': {'candidates': 469,
                                         'frequent': 39,
                                         'false_positives': 430,
                                         'local_makespan_s': 0.18020666666666665,
                                         'count_makespan_s': 0.133975},
                               'kv_round_trips': 19},
 ('webgraph', 'Stratified'): {'sizes': [125, 125, 125, 125],
                              'makespan_s': 0.31142000000000003,
                              'energy_j': 158.14880000000002,
                              'dirty_j': 48.59155876573915,
                              'answer': (26376, 7514, 4),
                              'extra': {},
                              'kv_round_trips': 20},
 ('webgraph', 'Het-Aware'): {'sizes': [207, 152, 98, 43],
                             'makespan_s': 0.13192,
                             'energy_j': 148.5259,
                             'dirty_j': 64.72277347042566,
                             'answer': (26376, 7519, 4),
                             'extra': {},
                             'kv_round_trips': 22},
 ('lz77', 'Stratified'): {'sizes': [125, 125, 125, 125],
                          'makespan_s': 0.218,
                          'energy_j': 102.28389999999999,
                          'dirty_j': 30.867521931018896,
                          'answer': (24776, 17662, 4),
                          'extra': {},
                          'kv_round_trips': 20},
 ('lz77', 'Het-Aware'): {'sizes': [212, 154, 96, 38],
                         'makespan_s': 0.08913,
                         'energy_j': 95.5059,
                         'dirty_j': 41.856734644921744,
                         'answer': (24776, 17524, 4),
                         'extra': {},
                         'kv_round_trips': 22}}

GOLDEN_POOL = {'lz77': {'sizes': [125, 125, 125, 125], 'answer': (24776, 17662, 4), 'counts': {}},
 'fpgrowth': {'sizes': [60, 60, 60, 60],
              'answer': (57, '6614533e773b2d20'),
              'counts': {'candidates': 113, 'frequent': 57, 'false_positives': 56}}}

FLOATS = ("makespan_s", "energy_j", "dirty_j")


@pytest.mark.parametrize("via_kv", (True, False))
@pytest.mark.parametrize("strategy", (STRATIFIED, HET_AWARE), ids=lambda s: s.name)
@pytest.mark.parametrize("name", SERVICE_WORKLOADS)
def test_simulated_job_is_unchanged(name, strategy, via_kv):
    golden = GOLDEN[(name, strategy.name)]
    got = _simulated(name, strategy, via_kv)
    assert got["sizes"] == golden["sizes"]
    assert got["answer"] == golden["answer"]
    for key in FLOATS:
        assert got[key] == pytest.approx(golden[key], rel=1e-12)
    assert got["extra"] == pytest.approx(golden["extra"], rel=1e-12)
    if via_kv:
        assert 0 < got["kv_round_trips"] <= golden["kv_round_trips"]
    else:
        assert got["kv_round_trips"] == 0


@pytest.mark.parametrize("via_kv", (True, False))
@pytest.mark.parametrize("name", POOL_WORKLOADS)
def test_process_pool_job_is_unchanged(name, via_kv):
    assert _pooled(name, via_kv) == GOLDEN_POOL[name]


if __name__ == "__main__":
    import pprint

    recorded, recorded_pool = _record()
    print("GOLDEN = ", end="")
    pprint.pprint(recorded, width=100, sort_dicts=False)
    print("\nGOLDEN_POOL = ", end="")
    pprint.pprint(recorded_pool, width=100, sort_dicts=False)

"""Kernel micro-benchmarks: each kernel against its named oracle.

Times the :mod:`repro.perf` kernels against the reference
implementations they replaced — column-wise pivot hashing, the batch
tree-pivot kernel (``extract_flat`` and ``count_records`` on the
benchmark's swissprot trees), ragged-batch sketching and code-space
compositeKModes fit (on synthetic sets and clusters, and on the
end-to-end benchmark's own pivots and sketches: the fit at K = 16 at its
batch-cold sizes and K = 8 at the service's warm sizes, each kernel with
its ``tracemalloc`` peak and minor page faults per call), packed-bitmap
Apriori mining, the fast LZ77 coder (on chunk-repetitive bytes and on the uk text the
end-to-end benchmark compresses), the whole-partition WebGraph coder
(on synthetic lists, on the end-to-end benchmark's uk partitions and on
a probe-shaped shuffled sample) and the array-forest FP-growth miner (on
the end-to-end benchmark's rcv1 partitions and on probe-sized samples),
and the columns leg: ``workload.run`` of webgraph, lz77 and fpgrowth on
the staged partitions of a ruler plan, against decoding them and running
on the records — asserting bit-identical outputs before reporting any
number, and writes the measurements to
``benchmarks/results/BENCH_kernels.json``.

Each section records both timings under ``tiers`` — ``reference`` (the
oracle: ``tree_triples_reference``, ``trees_to_pivot_sets``,
``sketch_all_reference``, ``fit_reference``, ``mine_reference``,
``compress_reference``) and ``numpy`` (the kernel the method itself
runs; in the columns leg ``reference`` is the record path and ``numpy``
the staged one). ``speedup`` is numpy vs reference. The file is a record
(``docs/performance.md`` cites it); nothing reads it back.

Runs standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke] [--out PATH]

or as part of the benchmark suite (smoke-sized so ``make bench`` stays
quick)::

    pytest benchmarks/bench_kernels.py --benchmark-only

The kmodes dataset is drawn with ground-truth cluster structure (each
row samples mostly from one of ``K`` shared pivot pools): uniform random
sketches give every attribute ~n distinct values and converge in one or
two degenerate iterations, which benchmarks neither path's steady state.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from repro.stratify.kmodes import CompositeKModes
from repro.stratify.minhash import MinHasher
from repro.stratify.pivots import (
    PivotExtractor,
    pivot_ids,
    stable_pivot_id,
    tree_triples_reference,
)
from repro.stratify.stratifier import Stratifier


def _section(t_reference: float, t_numpy: float, **extra) -> dict:
    """One kernel's result block; ``speedup`` is numpy vs reference."""
    return {
        "speedup": t_reference / t_numpy,
        "tiers": {"reference": t_reference, "numpy": t_numpy},
        **extra,
        "bit_identical": True,
    }

FULL = {
    "pivot_triples": 350_000,
    "num_sets": 10_000,
    "pivots_per_set": (30, 70),
    "sketch_hashes": 48,
    "kmodes_rows": 5_000,
    "kmodes_hashes": 64,
    "kmodes_clusters": 8,
    "stratify_cold": (("uk", 0.8), ("uk", 0.4), ("swissprot", 0.4), ("rcv1", 2.0)),
    "stratify_warm": (("uk", 2.4), ("uk", 0.8), ("swissprot", 0.8), ("rcv1", 4.0)),
    "tree_scales": (0.4, 0.8),
    "apriori_transactions": 4_000,
    "apriori_items": 48,
    "apriori_tx_len": (6, 14),
    "apriori_min_support": 0.08,
    "lz77_bytes": 200_000,
    "lz77_uk_scale": 0.8,
    "webgraph_lists": 1_500,
    "webgraph_degree": (10, 60),
    "webgraph_uk_scale": 2.4,
    "webgraph_probe_lists": 1_200,
    "fpgrowth_rcv1_scale": 4.0,
    "fpgrowth_probe_sizes": (240, 960),
}
SMOKE = {
    "pivot_triples": 5_000,
    "num_sets": 400,
    "pivots_per_set": (30, 70),
    "sketch_hashes": 16,
    "kmodes_rows": 400,
    "kmodes_hashes": 16,
    "kmodes_clusters": 4,
    "stratify_cold": (("uk", 0.1), ("swissprot", 0.1), ("rcv1", 0.2)),
    "stratify_warm": (("uk", 0.2), ("rcv1", 0.3)),
    "tree_scales": (0.1, 0.2),
    "apriori_transactions": 300,
    "apriori_items": 24,
    "apriori_tx_len": (4, 10),
    "apriori_min_support": 0.1,
    "lz77_bytes": 12_000,
    "lz77_uk_scale": 0.1,
    "webgraph_lists": 120,
    "webgraph_degree": (5, 25),
    "webgraph_uk_scale": 0.3,
    "webgraph_probe_lists": 150,
    "fpgrowth_rcv1_scale": 0.5,
    "fpgrowth_probe_sizes": (30, 120),
}


def _pivot_sets(num_sets: int, size_range: tuple[int, int], rng) -> list[np.ndarray]:
    lo, hi = size_range
    return [
        rng.integers(0, 1 << 32, size=int(rng.integers(lo, hi))).astype(np.uint64)
        for _ in range(num_sets)
    ]


def _clustered_sets(num_sets: int, groups: int, size_range: tuple[int, int], rng):
    lo, hi = size_range
    bases = [rng.integers(0, 1 << 32, size=200).astype(np.uint64) for _ in range(groups)]
    sets = []
    for i in range(num_sets):
        take = rng.choice(bases[i % groups], size=int(rng.integers(lo, min(hi, 150))), replace=False)
        noise = rng.integers(0, 1 << 32, size=int(rng.integers(0, 8))).astype(np.uint64)
        sets.append(np.concatenate([take, noise]))
    return sets


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_mib(fn) -> float:
    """``tracemalloc``'s peak over one call of ``fn``, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _minor_faults(fn, calls: int = 3) -> float:
    """Minor page faults per call of ``fn`` after one warm-up call: the
    ``ru_minflt`` delta. A report, not a gate: glibc serves a block
    above its mmap threshold (128 KiB at start) with fresh pages on every
    call, but freeing such a block raises the threshold for the rest of
    the process, so what an earlier section freed can hide a later
    section's faults — hence :func:`_fresh_faults`."""
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def _fault_row(stage: str, dataset: str, scale: float, num_clusters: int) -> float:
    """:func:`_minor_faults` of one ``sketch`` or ``fit`` row, on the
    dataset's own pivots (or their sketches) as the timed rows build
    them, in this process."""
    from repro.data.datasets import load_dataset

    data = load_dataset(dataset, size_scale=scale, seed=1)
    stratifier = Stratifier(kind=data.kind, seed=1)
    hasher = MinHasher(num_hashes=stratifier.num_hashes, seed=stratifier.seed)
    flat, offsets = PivotExtractor(data.kind).extract_flat(data.items)
    if stage == "sketch":
        return _minor_faults(lambda: hasher.sketch_flat(flat, offsets))
    sketches = hasher.sketch_flat(flat, offsets)
    km = CompositeKModes(num_clusters=num_clusters, seed=2)
    return _minor_faults(lambda: km.fit(sketches))


def _fresh_faults(stage: str, dataset: str, scale: float, num_clusters: int) -> float:
    """:func:`_fault_row` in a fresh interpreter — this file run as a
    subprocess with ``--faults`` — so no block an earlier section freed
    has raised glibc's mmap threshold before the row is measured (the
    row's own set-up still runs first)."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    argv = [sys.executable, __file__, "--faults", stage, dataset, str(scale), str(num_clusters)]
    done = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
    return float(done.stdout)


def run_kernel_bench(cfg: dict) -> dict:
    rng = np.random.default_rng(0)
    results: dict[str, dict] = {"config": dict(cfg)}

    # -- pivot hashing: one mixer call per pivot vs whole columns ----------
    # Label triples as the tree extractor hashes them, negative and
    # 2**40-sized ids included; the text/graph shape is (ids, tag, tag).
    ph_rng = np.random.default_rng(1)
    triples = ph_rng.integers(-(1 << 40), 1 << 40, size=(3, cfg["pivot_triples"]))
    columns = [col.tolist() for col in triples]
    scalar = [stable_pivot_id(a, b, c) for a, b, c in zip(*columns)]
    assert pivot_ids(*triples).tolist() == scalar, "pivot_ids diverged"
    assert pivot_ids(triples[0], 2, 2).tolist() == [
        stable_pivot_id(a, 2, 2) for a in columns[0]
    ], "pivot_ids diverged on a tagged column"
    t_reference = _best_of(
        lambda: [stable_pivot_id(a, b, c) for a, b, c in zip(*columns)], repeats=1
    )
    t_batched = _best_of(lambda: pivot_ids(*columns))  # from lists, as extract_flat calls it
    results["pivot_hash"] = _section(t_reference, t_batched)

    # -- tree pivots: every tree's triples in array passes vs one at a time
    # The swissprot trees of the e2e benchmark's treemining jobs (its
    # batch-cold and warm sizes in FULL): extract_flat as the sketch
    # calls it, and count_records as prepare calls it.
    from repro.data.datasets import load_dataset
    from repro.workloads.fpm.treemining import TreeMiningWorkload, trees_to_pivot_sets

    forests = [load_dataset("swissprot", size_scale=s, seed=1).items for s in cfg["tree_scales"]]
    extractor = PivotExtractor("tree")
    count_records = TreeMiningWorkload(min_support=0.3).count_records

    def flat_reference(items):
        *columns, offsets = tree_triples_reference(items)
        return pivot_ids(*columns), offsets

    for name, kernel, reference in (
        ("tree_pivots_flat", extractor.extract_flat, flat_reference),
        ("tree_pivots_count", count_records, lambda items: trees_to_pivot_sets(items)[0]),
    ):
        per_size = {}
        for items in forests:
            got, expected = kernel(items), reference(items)
            if name == "tree_pivots_flat":
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected)), name
            else:
                assert got == expected, f"{name} diverged"
            per_size[len(items)] = {
                "reference": _best_of(lambda: reference(items), repeats=3),
                "numpy": _best_of(lambda: kernel(items), repeats=5),
            }
        results[name] = _section(
            sum(t["reference"] for t in per_size.values()),
            sum(t["numpy"] for t in per_size.values()),
            trees=per_size,
        )

    # -- sketch_all: ragged batch vs per-set loop --------------------------
    sets = _pivot_sets(cfg["num_sets"], cfg["pivots_per_set"], rng)
    hasher = MinHasher(num_hashes=cfg["sketch_hashes"], seed=0)
    batched = hasher.sketch_all(sets)  # warm caches
    reference = hasher.sketch_all_reference(sets)
    assert np.array_equal(batched, reference), "sketch kernel diverged"
    t_batched = _best_of(lambda: hasher.sketch_all(sets))
    t_reference = _best_of(lambda: hasher.sketch_all_reference(sets), repeats=1)
    results["sketch_all"] = _section(t_reference, t_batched)

    # -- CompositeKModes.fit: code-space kernels vs python loops -----------
    km_rng = np.random.default_rng(2)
    km_sets = _clustered_sets(
        cfg["kmodes_rows"], cfg["kmodes_clusters"], cfg["pivots_per_set"], km_rng
    )
    sketches = MinHasher(num_hashes=cfg["kmodes_hashes"], seed=0).sketch_all(km_sets)
    kmodes = CompositeKModes(num_clusters=cfg["kmodes_clusters"], top_l=3, seed=0)
    fit_b = kmodes.fit(sketches)
    fit_r = kmodes.fit_reference(sketches)
    assert np.array_equal(fit_b.labels, fit_r.labels), "kmodes labels diverged"
    assert np.array_equal(fit_b.centers, fit_r.centers), "kmodes centers diverged"
    assert fit_b.cost == fit_r.cost and fit_b.iterations == fit_r.iterations
    t_batched = _best_of(lambda: kmodes.fit(sketches), repeats=2)
    t_reference = _best_of(lambda: kmodes.fit_reference(sketches), repeats=1)
    results["kmodes_fit"] = _section(t_reference, t_batched, iterations=fit_b.iterations)

    # The sketch and the fit on what the e2e benchmark stratifies: each
    # dataset's own pivots and sketches (library defaults, 48 hashes),
    # fitted at K = 16 as a batch-cold prepare does and at K = 8 as the
    # service's warm scenarios do. Beside each kernel's time: its
    # tracemalloc peak (its input not counted) and its minor page faults
    # per call, each row counted in a fresh interpreter.
    for size, num_clusters in (("cold", 16), ("warm", 8)):
        sketch_runs, fits = [], []
        for dataset, scale in cfg[f"stratify_{size}"]:
            label = f"{dataset}x{scale}"
            data = load_dataset(dataset, size_scale=scale, seed=1)
            stratifier = Stratifier(kind=data.kind, seed=1)
            hasher = MinHasher(num_hashes=stratifier.num_hashes, seed=stratifier.seed)
            flat, offsets = PivotExtractor(data.kind).extract_flat(data.items)
            sketches = hasher.sketch_flat(flat, offsets)
            sets = np.split(flat, offsets[1:-1])
            assert np.array_equal(sketches, hasher.sketch_all_reference(sets)), (
                f"sketch_{size} diverged"
            )
            sketch_runs.append((label, hasher, flat, offsets, sets))
            km = CompositeKModes(num_clusters=num_clusters, seed=2)
            fast, slow = km.fit(sketches), km.fit_reference(sketches)
            assert np.array_equal(fast.labels, slow.labels), f"kmodes_fit_{size} labels diverged"
            assert np.array_equal(fast.centers, slow.centers), f"kmodes_fit_{size} centers diverged"
            assert fast.cost == slow.cost and fast.iterations == slow.iterations
            fits.append((label, km, sketches, fast.iterations))
        results[f"sketch_{size}"] = _section(
            _best_of(
                lambda: [h.sketch_all_reference(s) for _, h, _, _, s in sketch_runs], repeats=1
            ),
            _best_of(lambda: [h.sketch_flat(f, o) for _, h, f, o, _ in sketch_runs], repeats=5),
            sets={label: len(s) for label, _, _, _, s in sketch_runs},
            peak_mib={
                label: _peak_mib(lambda: h.sketch_flat(f, o))
                for label, h, f, o, _ in sketch_runs
            },
            minor_faults={
                f"{dataset}x{scale}": _fresh_faults("sketch", dataset, scale, num_clusters)
                for dataset, scale in cfg[f"stratify_{size}"]
            },
        )
        results[f"kmodes_fit_{size}"] = _section(
            _best_of(lambda: [km.fit_reference(sk) for _, km, sk, _ in fits], repeats=1),
            _best_of(lambda: [km.fit(sk) for _, km, sk, _ in fits], repeats=5),
            num_clusters=num_clusters,
            rows={label: int(sk.shape[0]) for label, _, sk, _ in fits},
            iterations={label: it for label, _, _, it in fits},
            peak_mib={
                label: {
                    "numpy": _peak_mib(lambda: km.fit(sk)),
                    "reference": _peak_mib(lambda: km.fit_reference(sk)),
                }
                for label, km, sk, _ in fits
            },
            minor_faults={
                f"{dataset}x{scale}": _fresh_faults("fit", dataset, scale, num_clusters)
                for dataset, scale in cfg[f"stratify_{size}"]
            },
        )

    # -- Apriori: packed vertical bitmaps vs containment scan --------------
    from repro.workloads.fpm.apriori import AprioriMiner

    ap_rng = np.random.default_rng(5)
    lo, hi = cfg["apriori_tx_len"]
    # Skewed item popularity so multi-item patterns actually survive.
    weights = 1.0 / np.arange(1, cfg["apriori_items"] + 1)
    weights /= weights.sum()
    transactions = [
        ap_rng.choice(
            cfg["apriori_items"], size=int(ap_rng.integers(lo, hi)), p=weights
        ).tolist()
        for _ in range(cfg["apriori_transactions"])
    ]
    miner = AprioriMiner(min_support=cfg["apriori_min_support"])
    out_f = miner.mine(transactions)
    out_r = miner.mine_reference(transactions)
    assert out_f.counts == out_r.counts, "apriori kernel diverged"
    assert out_f.work_units == out_r.work_units
    t_batched = _best_of(lambda: miner.mine(transactions), repeats=2)
    t_reference = _best_of(lambda: miner.mine_reference(transactions), repeats=1)
    results["apriori_mine"] = _section(t_reference, t_batched, patterns=len(out_f.counts))

    # -- LZ77: precomputed-link coder vs hash-chain loop -------------------
    from repro.workloads.compression.lz77 import LZ77Codec

    lz_rng = np.random.default_rng(7)
    chunks = [bytes(lz_rng.integers(97, 105, size=40).astype(np.uint8))]
    data = bytearray()
    while len(data) < cfg["lz77_bytes"]:
        if lz_rng.random() < 0.7:
            data += chunks[int(lz_rng.integers(0, len(chunks)))]
        else:
            chunk = bytes(lz_rng.integers(97, 123, size=30).astype(np.uint8))
            chunks.append(chunk)
            data += chunk
    data = bytes(data[: cfg["lz77_bytes"]])
    codec = LZ77Codec()
    blob_f, st_f = codec.compress(data)
    blob_r, st_r = codec.compress_reference(data)
    assert blob_f == blob_r and st_f == st_r, "lz77 kernel diverged"
    assert codec.decompress(blob_f) == data
    t_batched = _best_of(lambda: codec.compress(data), repeats=2)
    t_reference = _best_of(lambda: codec.compress_reference(data), repeats=1)
    results["lz77_compress"] = _section(t_reference, t_batched, ratio=st_f.ratio)

    # The same coder on what the e2e benchmark's lz77 jobs compress: uk
    # adjacency records framed as text, the catalogue's max_chain=8.
    # Short matches and deep chains — most positions probe several
    # candidates — the opposite regime of the chunk stream above.
    records = load_dataset("uk", size_scale=cfg["lz77_uk_scale"], seed=0).items
    text = "\n".join(" ".join(map(str, rec)) for rec in records).encode()
    codec = LZ77Codec(max_chain=8)
    blob_f, st_f = codec.compress(text)
    blob_r, st_r = codec.compress_reference(text)
    assert blob_f == blob_r and st_f == st_r, "lz77 kernel diverged on uk text"
    t_batched = _best_of(lambda: codec.compress(text), repeats=3)
    t_reference = _best_of(lambda: codec.compress_reference(text), repeats=1)
    results["lz77_compress_uk"] = _section(
        t_reference,
        t_batched,
        ratio=st_f.ratio,
        input_bytes=st_f.input_bytes,
        avg_match_bytes=(st_f.input_bytes - st_f.literals) / st_f.matches,
        probes_per_parse_position=st_f.probes / (st_f.matches + st_f.literals),
    )

    # -- WebGraph: batched interval/mask coder vs per-symbol loops ---------
    from repro.workloads.compression.webgraph import WebGraphCodec

    wg_rng = np.random.default_rng(9)
    dlo, dhi = cfg["webgraph_degree"]
    base = np.sort(wg_rng.choice(5_000, size=dhi, replace=False))
    adjacency = []
    for _ in range(cfg["webgraph_lists"]):
        if wg_rng.random() < 0.3:
            base = np.sort(wg_rng.choice(5_000, size=dhi, replace=False))
        keep = base[wg_rng.random(base.size) < 0.8]
        extra = wg_rng.choice(5_000, size=int(wg_rng.integers(0, 6)))
        adjacency.append(np.concatenate([keep, extra]).tolist())
    webgraph = WebGraphCodec()
    wg_f, wst_f = webgraph.compress(adjacency)
    wg_r, wst_r = webgraph.compress_reference(adjacency)
    assert wg_f == wg_r and wst_f == wst_r, "webgraph kernel diverged"
    t_batched = _best_of(lambda: webgraph.compress(adjacency), repeats=2)
    t_reference = _best_of(lambda: webgraph.compress_reference(adjacency), repeats=1)
    results["webgraph_compress"] = _section(
        t_reference, t_batched, bits_per_edge=wst_f.bits_per_edge
    )

    # The same coder on what the e2e benchmark's webgraph jobs compress:
    # its uk adjacency cut into one Het-Aware plan's similar-together
    # partitions, and a shuffled sample the size of the progressive
    # sampler's largest probe. In the sample neighbouring lists rarely
    # overlap, which the reference rejects cheaply; the kernel's cost
    # does not depend on overlap.
    partitions, items = ruler_plan_partitions("webgraph", "uk", cfg["webgraph_uk_scale"])
    pick = np.random.default_rng(11).permutation(len(items))[: cfg["webgraph_probe_lists"]]
    for name, parts in (
        ("webgraph_compress_uk", partitions),
        ("webgraph_compress_probe", [[items[i] for i in pick]]),
    ):
        for part in parts:
            assert webgraph.compress(part) == webgraph.compress_reference(part), (
                f"webgraph kernel diverged on {name}"
            )
        t_batched = _best_of(lambda: [webgraph.compress(p) for p in parts], repeats=3)
        t_reference = _best_of(lambda: [webgraph.compress_reference(p) for p in parts], repeats=1)
        results[name] = _section(
            t_reference,
            t_batched,
            lists=[len(p) for p in parts],
            edges=sum(len(lst) for p in parts for lst in p),
        )

    # -- FP-growth: one array forest per pattern length vs pointer trees ---
    # What the e2e benchmark's fpgrowth jobs mine: rcv1 cut into one
    # Het-Aware plan's representative partitions (catalogue max_len=3,
    # support 0.1), and shuffled samples the size of the progressive
    # sampler's smallest and largest probes, which price the plan.
    from repro.service.jobs import build_workload

    miner = build_workload("fpgrowth", 0.1).miner
    partitions, items = ruler_plan_partitions("fpgrowth", "rcv1", cfg["fpgrowth_rcv1_scale"])
    order = np.random.default_rng(13).permutation(len(items))
    probes = [[items[i] for i in order[:n]] for n in cfg["fpgrowth_probe_sizes"]]
    for name, parts in (("fpgrowth_mine_rcv1", partitions), ("fpgrowth_mine_probe", probes)):
        patterns = []
        for part in parts:
            out_f, out_r = miner.mine(part), miner.mine_reference(part)
            assert list(out_f.counts.items()) == list(out_r.counts.items()), (
                f"fpgrowth kernel diverged on {name}"
            )
            assert out_f.work_units == out_r.work_units
            assert out_f.candidates_generated == out_r.candidates_generated
            patterns.append(len(out_f.counts))
        t_batched = _best_of(lambda: [miner.mine(p) for p in parts], repeats=3)
        t_reference = _best_of(lambda: [miner.mine_reference(p) for p in parts], repeats=1)
        results[name] = _section(
            t_reference,
            t_batched,
            transactions=[len(p) for p in parts],
            patterns=patterns,
        )

    # -- Columns: each flat kernel on a staged partition vs its records ----
    # What a pool worker runs: workload.run on the slice staging built
    # (one gather of the dataset's columnar encoding), read through
    # columns_of. The "reference" tier decodes the
    # partition and runs on its records, the path the worker took
    # before; outputs, stats and work units must be equal.
    from repro.data.datasets import DATASET_KINDS
    from repro.kvstore.codec import encode_dataset

    for workload, dataset, scale in (
        ("webgraph", "uk", cfg["webgraph_uk_scale"]),
        ("lz77", "uk", cfg["lz77_uk_scale"]),
        ("fpgrowth", "rcv1", cfg["fpgrowth_rcv1_scale"]),
    ):
        job = build_workload(workload, 0.1)
        partitions, _ = ruler_plan_partitions(workload, dataset, scale)
        staged = [
            encode_dataset(DATASET_KINDS[dataset], part).gather(np.arange(len(part)))
            for part in partitions
        ]
        for part in staged:
            on_columns, on_records = job.run(part), job.run(part.records())
            assert on_columns.work_units == on_records.work_units, f"{workload} columns diverged"
            assert on_columns.stats == on_records.stats, f"{workload} columns diverged"
            if workload == "fpgrowth":
                assert list(on_columns.output.counts.items()) == list(
                    on_records.output.counts.items()
                ), f"{workload} columns diverged"
            else:
                assert on_columns.output == on_records.output, f"{workload} columns diverged"
        results[f"{workload}_run_columns"] = _section(
            _best_of(lambda: [job.run(p.records()) for p in staged], repeats=11),
            _best_of(lambda: [job.run(p) for p in staged], repeats=11),
            records=[len(p) for p in staged],
        )
    return results


def ruler_plan_partitions(workload: str, dataset: str, scale: float):
    """``dataset`` at ``scale`` (the e2e benchmark's data for
    ``workload``: uk × 2.4 for webgraph, rcv1 × 4.0 for fpgrowth), cut
    into the partitions of its Het-Aware plan with the kind's placement.

    Returns ``(partitions, items)``. The kernels' parity suites under
    ``tests/perf/`` assert oracle parity on the same cut."""
    from repro.cluster import SimulatedEngine, paper_cluster
    from repro.core import HET_AWARE, ParetoPartitioner
    from repro.data.datasets import load_dataset
    from repro.service.jobs import build_workload, default_placement
    from repro.workloads.catalog import WORKLOADS

    data = load_dataset(dataset, size_scale=scale, seed=1)
    engine = SimulatedEngine(paper_cluster(4, seed=0), unit_rate=WORKLOADS[workload].unit_rate)
    pp = ParetoPartitioner(engine, kind=data.kind, seed=1)
    prepared = pp.prepare(data.items, build_workload(workload, 0.1))
    strategy = HET_AWARE.with_placement(default_placement(workload))
    indices = pp.place(prepared, strategy, pp.plan(prepared, strategy))
    return [[data.items[i] for i in ix] for ix in indices if ix.size], data.items


_KERNEL_SECTIONS = (
    "pivot_hash",
    "tree_pivots_flat",
    "tree_pivots_count",
    "sketch_all",
    "kmodes_fit",
    "sketch_cold",
    "kmodes_fit_cold",
    "sketch_warm",
    "kmodes_fit_warm",
    "apriori_mine",
    "lz77_compress",
    "lz77_compress_uk",
    "webgraph_compress",
    "webgraph_compress_uk",
    "webgraph_compress_probe",
    "fpgrowth_mine_rcv1",
    "fpgrowth_mine_probe",
    "webgraph_run_columns",
    "lz77_run_columns",
    "fpgrowth_run_columns",
)


def _render(results: dict) -> str:
    lines = ["kernel                   reference      numpy    numpy-vs-ref"]
    for name in _KERNEL_SECTIONS:
        r = results[name]
        tiers = r["tiers"]
        lines.append(
            f"{name:<24} {tiers['reference']:>8.3f}s  {tiers['numpy']:>8.3f}s"
            f"  {r['speedup']:>10.2f}x"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (CI smoke test)")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path(__file__).parent / "results" / "BENCH_kernels.json",
    )
    parser.add_argument(
        "--faults",
        nargs=4,
        metavar=("STAGE", "DATASET", "SCALE", "K"),
        help="print one sketch/fit row's minor faults per call and exit",
    )
    args = parser.parse_args(argv)
    if args.faults:
        stage, dataset, scale, k = args.faults
        print(_fault_row(stage, dataset, float(scale), int(k)))
        return
    results = run_kernel_bench(SMOKE if args.smoke else FULL)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(_render(results))
    print(f"[saved to {args.out}]")


def test_bench_kernels(benchmark):
    # Imported lazily so `python benchmarks/bench_kernels.py` needs no
    # pytest on the path; the suite run uses smoke sizes to stay quick.
    from conftest import run_once, save_result

    results = run_once(benchmark, lambda: run_kernel_bench(SMOKE))
    save_result("BENCH_kernels_smoke", _render(results))
    for name in _KERNEL_SECTIONS:
        assert results[name]["bit_identical"]
        tiers = results[name]["tiers"]
        assert tiers["reference"] > 0 and tiers["numpy"] > 0


if __name__ == "__main__":
    main()

"""Kernel names for the end-to-end ruler's host fingerprint.

Each kernel family has one production kernel (the batched numpy one)
and a named test oracle; nothing selects between them at run time.
``benchmarks/e2e/e2ebench/harness.py`` (frozen) still asks this module
which tier each kind runs; nothing under ``src/`` calls it. Delete it,
with :mod:`repro.perf.native`, when ROADMAP item 5(c) re-points the ruler.
"""

from __future__ import annotations

KIND_TIERS = {
    kind: ("numpy",) for kind in ("minhash", "kmodes", "fpm", "lz77", "webgraph")
}


def resolve_tier(kernel: str, *, kind: str, work: float = 0) -> str:
    return KIND_TIERS[kind][0]

"""Shape-aware kernel tier dispatch (the autotuner).

Every hot kernel family now has up to three implementations —
``reference`` (the kept Python/numpy-loop oracle), ``numpy`` (the
batched kernels of PRs 1–2) and ``native`` (the optional numba tier in
:mod:`repro.perf.native`) — all bit-identical. This module picks one
per call:

- An explicit ``kernel=`` argument wins outright. Explicitly
  requesting ``"native"`` without numba raises (you asked for something
  the interpreter cannot provide); everything else degrades gracefully.
- ``kernel="auto"`` (the new default everywhere) consults, in order:
  the ``REPRO_KERNEL_TIER`` environment variable (a process-wide pin;
  ignored for kinds that lack the pinned tier, softened to the shape
  choice when it pins an unavailable native tier), then the shape of
  the input: below a per-kind work threshold the fixed dispatch
  overhead of the batched tiers loses to the reference path, above it
  the fastest available tier wins, with the native-vs-numpy ranking
  seeded from the per-tier timings ``benchmarks/bench_kernels.py``
  records in ``BENCH_kernels.json``.

Every resolution increments the
``repro_kernel_dispatch_total{kernel,tier}`` counter when
:mod:`repro.obs` is enabled, so ``repro obs report`` can show which
tier actually ran during a job. When ``auto`` wanted the native tier
but numba is missing, a single ``kernel.native_unavailable`` log event
records the downgrade (once per kernel kind per process) and the numpy
tier runs instead — never an exception.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import pathlib
from typing import Iterator

from repro import obs
from repro.perf.native import runtime

__all__ = [
    "AUTO",
    "TIERS",
    "KIND_TIERS",
    "SMALL_WORK",
    "ENV_TIER",
    "ENV_SEEDS",
    "validate_kernel",
    "resolve_tier",
    "seed_measurements",
]

AUTO = "auto"

#: Canonical tier names, slowest-but-simplest first.
TIERS = ("reference", "numpy", "native")

#: Tiers each kernel kind actually implements. WebGraph's batched coder
#: is symbol-stream bookkeeping over Python sets — no native candidate.
KIND_TIERS = {
    "minhash": ("reference", "numpy", "native"),
    "kmodes": ("reference", "numpy", "native"),
    "fpm": ("reference", "numpy", "native"),
    "lz77": ("reference", "numpy", "native"),
    "webgraph": ("reference", "numpy"),
}

#: Below this per-kind work estimate the reference path wins on the
#: batched tiers' fixed dispatch overhead (array conversion, packing,
#: argsort setup). Work units per kind: minhash = elements x hashes;
#: kmodes = rows x clusters x attrs x L; fpm/webgraph = input records;
#: lz77 = input bytes.
SMALL_WORK = {
    "minhash": 2048,
    "kmodes": 4096,
    "fpm": 16,
    "lz77": 512,
    "webgraph": 8,
}

#: BENCH_kernels.json section holding each kind's per-tier timings.
_BENCH_SECTION = {
    "minhash": "sketch_all",
    "kmodes": "kmodes_fit",
    "fpm": "apriori_mine",
    "lz77": "lz77_compress",
    "webgraph": "webgraph_compress",
}

ENV_TIER = "REPRO_KERNEL_TIER"
ENV_SEEDS = "REPRO_BENCH_KERNELS"


def validate_kernel(kernel: str, kind: str) -> str:
    """Check a ``kernel=`` argument for ``kind`` and return it.

    Raises ``ValueError`` for spellings that name no tier of this kind,
    so constructors fail fast.
    """
    allowed = (AUTO,) + KIND_TIERS[kind]
    if kernel not in allowed:
        raise ValueError(f"kernel must be one of {allowed}, got {kernel!r}")
    return kernel


def _seed_paths() -> Iterator[pathlib.Path]:
    env = os.environ.get(ENV_SEEDS)
    if env:
        yield pathlib.Path(env)
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    yield pathlib.Path.cwd() / "BENCH_kernels.json"
    yield repo_root / "BENCH_kernels.json"
    yield repo_root / "benchmarks" / "results" / "BENCH_kernels.json"


@functools.lru_cache(maxsize=1)
def seed_measurements() -> dict:
    """The persisted ``BENCH_kernels.json`` measurements, if any.

    Looked up once per process from ``$REPRO_BENCH_KERNELS``, the
    working directory, the repo root, then ``benchmarks/results/``;
    missing or malformed files mean no seeds (``{}``), never an error.
    """
    for candidate in _seed_paths():
        try:
            loaded = json.loads(candidate.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(loaded, dict):
            return loaded
    return {}


def _native_beats_numpy(kind: str) -> bool:
    """Seeded ranking: is the native tier measured faster than numpy?

    With no usable measurement the compiled tier is assumed to win —
    that is what the recorded benchmarks show wherever both exist.
    """
    section = seed_measurements().get(_BENCH_SECTION[kind])
    tiers = section.get("tiers") if isinstance(section, dict) else None
    if not isinstance(tiers, dict):
        return True
    native_s = tiers.get("native")
    numpy_s = tiers.get("numpy")
    if isinstance(native_s, (int, float)) and isinstance(numpy_s, (int, float)):
        if native_s > 0 and numpy_s > 0:
            return native_s <= numpy_s
    return True


@functools.lru_cache(maxsize=None)
def _log_native_unavailable(kind: str) -> None:
    """One log event per kernel kind per process for the auto downgrade."""
    obs.log_event(
        obs.get_logger(__name__),
        logging.INFO,
        "kernel.native_unavailable",
        kernel=kind,
        fallback="numpy",
    )


def _record_dispatch(kind: str, tier: str) -> None:
    if obs.enabled():
        obs.get_metrics().counter(
            "repro_kernel_dispatch_total", kernel=kind, tier=tier
        ).inc()


def _choose(kind: str, work: float) -> str:
    if work < SMALL_WORK[kind]:
        return "reference"
    if "native" in KIND_TIERS[kind] and _native_beats_numpy(kind):
        if runtime.numba_available():
            return "native"
        _log_native_unavailable(kind)
    return "numpy"


def resolve_tier(kernel: str, *, kind: str, work: float = 0) -> str:
    """Resolve a ``kernel=`` argument to a concrete tier for one call.

    ``work`` is the caller's cheap size estimate (see
    :data:`SMALL_WORK` for units). Returns one of :data:`TIERS`.
    """
    choice = validate_kernel(kernel, kind)
    if choice == AUTO:
        pinned = os.environ.get(ENV_TIER)
        if pinned:
            if pinned not in TIERS:
                raise ValueError(f"{ENV_TIER} must name a tier {TIERS}, got {pinned!r}")
            if pinned in KIND_TIERS[kind]:
                if pinned == "native" and not runtime.numba_available():
                    _log_native_unavailable(kind)
                else:
                    choice = pinned
        if choice == AUTO:
            choice = _choose(kind, work)
    elif choice == "native" and not runtime.numba_available():
        raise RuntimeError(
            "kernel='native' requested but numba is not importable; "
            "install numba or use kernel='auto' to fall back gracefully"
        )
    _record_dispatch(kind, choice)
    return choice

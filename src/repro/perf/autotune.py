"""Kernel tier dispatch (the autotuner).

Every hot kernel family has up to three bit-identical implementations:
``reference`` (the kept Python/numpy-loop oracle), ``numpy`` (the
batched kernels) and ``native`` (the optional numba tier in
:mod:`repro.perf.native`). This module picks one per call from the
``kernel=`` argument, the kernel kind, ``REPRO_KERNEL_TIER`` and
whether numba imports — nothing else:

- An explicit ``kernel=`` wins outright; ``"native"`` without numba
  raises (you asked for something the interpreter cannot provide).
- ``kernel="auto"`` (the default everywhere) takes the tier
  ``REPRO_KERNEL_TIER`` names, if this kind has it — a process-wide
  pin, how a whole pipeline is held to the oracle tier;
- otherwise, or when the pin is a native tier numba cannot back, the
  fastest tier available: ``native`` where the kind has one and numba
  imports, else ``numpy``. Unpinned ``auto`` never picks ``reference``.

Every resolution increments ``repro_kernel_dispatch_total{kernel,tier}``
when :mod:`repro.obs` is enabled, so ``repro obs report`` shows which
tier ran during a job. When ``auto`` wanted the native tier but numba
is missing, one ``kernel.native_unavailable`` log event per kernel kind
per process records the downgrade and the numpy tier runs — never an
exception.
"""

from __future__ import annotations

import functools
import logging
import os

from repro import obs
from repro.perf.native import runtime

__all__ = [
    "AUTO",
    "TIERS",
    "KIND_TIERS",
    "ENV_TIER",
    "validate_kernel",
    "resolve_tier",
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

ENV_TIER = "REPRO_KERNEL_TIER"


def validate_kernel(kernel: str, kind: str) -> str:
    """Check a ``kernel=`` argument for ``kind`` and return it.

    Raises ``ValueError`` for spellings that name no tier of this kind,
    so constructors fail fast.
    """
    allowed = (AUTO,) + KIND_TIERS[kind]
    if kernel not in allowed:
        raise ValueError(f"kernel must be one of {allowed}, got {kernel!r}")
    return kernel


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


def resolve_tier(kernel: str, *, kind: str, work: float = 0) -> str:
    """Resolve a ``kernel=`` argument to a concrete tier for one call.

    ``work`` is accepted and ignored: the choice does not depend on the
    input's size. Returns one of :data:`TIERS`.
    """
    choice = validate_kernel(kernel, kind)
    if choice == AUTO:
        pinned = os.environ.get(ENV_TIER)
        if pinned and pinned not in TIERS:
            raise ValueError(f"{ENV_TIER} must name a tier {TIERS}, got {pinned!r}")
        if pinned in KIND_TIERS[kind] and pinned != "native":
            choice = pinned
        elif "native" not in KIND_TIERS[kind]:
            choice = "numpy"
        elif runtime.numba_available():
            choice = "native"
        else:
            _log_native_unavailable(kind)
            choice = "numpy"
    elif choice == "native" and not runtime.numba_available():
        raise RuntimeError(
            "kernel='native' requested but numba is not importable; "
            "install numba or use kernel='auto' to fall back gracefully"
        )
    _record_dispatch(kind, choice)
    return choice

"""Kernel tier dispatch (the autotuner).

Every hot kernel family has two bit-identical implementations:
``reference`` (the kept Python/numpy-loop oracle) and ``numpy`` (the
batched kernels). This module picks one per call from the ``kernel=``
argument and ``REPRO_KERNEL_TIER`` — nothing else:

- an explicit ``kernel=`` wins outright;
- ``kernel="auto"`` (the default everywhere) takes the tier
  ``REPRO_KERNEL_TIER`` names — a process-wide pin, how a whole
  pipeline is held to the oracle tier;
- otherwise ``numpy``. Unpinned ``auto`` never picks ``reference``.

Every resolution increments ``repro_kernel_dispatch_total{kernel,tier}``
when :mod:`repro.obs` is enabled, so ``repro obs report`` shows which
tier ran during a job.
"""

from __future__ import annotations

import os

from repro import obs

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
TIERS = ("reference", "numpy")

#: Tiers each kernel kind implements.
KIND_TIERS = {
    kind: TIERS for kind in ("minhash", "kmodes", "fpm", "lz77", "webgraph")
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
        choice = pinned or "numpy"
    _record_dispatch(kind, choice)
    return choice

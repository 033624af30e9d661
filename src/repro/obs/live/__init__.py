"""``repro.obs.live`` — the always-on live telemetry plane.

Where :mod:`repro.obs` collects spans for *post-hoc* analysis (JSONL
traces, ``repro obs report``), this subpackage consumes them *while the
run is in flight*:

- :class:`TelemetryBus` — bounded drop-oldest ring the span sink
  writes into; subscribers snapshot by sequence number or long-poll.
- :class:`NodeEstimator` — online per-node time models (seconds per
  work unit) + power split, the ``nodes`` list of ``/live``.
- :class:`Ledger` — per-tenant green/dirty energy accounts that
  reconcile with :func:`repro.obs.energy.energy_split` to 1e-6.
- :class:`SLOMonitor` — multi-window burn-rate alerting over p99 job
  latency, dirty-J-per-job and queue-wait objectives.
- Surfaces: the service's ``GET /live`` endpoint and ``repro obs top``.

Process-global lifecycle mirrors :mod:`repro.obs`::

    from repro.obs import live

    plane = live.enable_live()  # also enables obs; installs tracer sink
    ... run jobs ...
    plane.snapshot()            # estimates, ledger, SLO states
    live.disable_live()

Deliberately *not* imported by ``repro.obs`` itself: the base plane
stays import-light and the live plane is strictly opt-in.
"""

from __future__ import annotations

import repro.obs as obs
from repro.obs.live.bus import TelemetryBus
from repro.obs.live.estimator import NodeEstimator
from repro.obs.live.ledger import Ledger
from repro.obs.live.plane import LivePlane, current_tenant, tenant_context
from repro.obs.live.slo import Objective, SLOMonitor, default_objectives

__all__ = [
    "TelemetryBus",
    "NodeEstimator",
    "Ledger",
    "SLOMonitor",
    "Objective",
    "default_objectives",
    "LivePlane",
    "tenant_context",
    "current_tenant",
    "enable_live",
    "disable_live",
    "live_enabled",
    "active_plane",
    "reset_live",
]

_plane: LivePlane | None = None


def enable_live(*, slo: SLOMonitor | None = None) -> LivePlane:
    """Create (or reuse) the process-global plane and attach it.

    Also enables :mod:`repro.obs` — the plane is fed by the tracer
    sink, so there is nothing to consume while tracing is off.
    """
    global _plane
    if _plane is None:
        _plane = LivePlane(slo=slo)
    obs.enable()
    return _plane.attach()


def disable_live() -> None:
    """Detach the plane from the tracer (state stays readable)."""
    if _plane is not None:
        _plane.detach()


def active_plane() -> LivePlane | None:
    """The global plane while the tracer feeds it, else None."""
    if _plane is not None and _plane.attached:
        return _plane
    return None


def live_enabled() -> bool:
    return active_plane() is not None


def reset_live() -> None:
    """Detach and drop the global plane (tests)."""
    global _plane
    disable_live()
    _plane = None

"""The live plane: one tracer sink → bus + estimator + ledger + SLOs.

One :class:`LivePlane` composes the four live-telemetry pieces and
attaches to the global tracer as its span sink. The span stream is the
plane's **only** input — instrumentation sites emit spans and nothing
else — and every finished span is processed **synchronously on the
emitting thread** by :meth:`LivePlane.publish_span`:

- every span is published onto the :class:`TelemetryBus` with its
  attributes (bounded ring — subscribers can't stall emitters);
- spans carrying ``energy_j`` (the exact predicate
  :func:`repro.obs.energy.energy_split` counts) are billed to the
  current thread's tenant on the :class:`Ledger` — the manager wraps
  job execution in :func:`tenant_context`, and task spans are emitted
  on that same worker thread, which is what makes per-tenant
  attribution exact;
- ``task.execute`` spans additionally feed the :class:`NodeEstimator`;
- the SLO streams are read off the service's spans: ``queue_wait``
  from a ``service.queue_wait`` span's duration, ``job_latency`` from
  a ``service.run`` span's ``queue_wait_s`` plus its duration, and
  ``dirty_j_per_job`` from its ``total_dirty_energy_j``.

None of the plane's own methods emit spans: a span inside the sink
path would recurse straight back into the sink.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

import repro.obs as obs
from repro.obs.live.bus import TelemetryBus
from repro.obs.live.estimator import NodeEstimator
from repro.obs.live.ledger import Ledger
from repro.obs.live.slo import SLOMonitor, default_objectives

__all__ = ["LivePlane", "tenant_context", "current_tenant"]

_TENANT = threading.local()


def current_tenant() -> str:
    """The tenant charges on this thread bill to (see :func:`tenant_context`)."""
    return getattr(_TENANT, "name", Ledger.UNATTRIBUTED)


@contextmanager
def tenant_context(tenant: str) -> Iterator[None]:
    """Attribute every energy span emitted on this thread to ``tenant``."""
    previous = getattr(_TENANT, "name", None)
    _TENANT.name = tenant
    try:
        yield
    finally:
        if previous is None:
            del _TENANT.name
        else:
            _TENANT.name = previous


class LivePlane:
    """Composition root for the live telemetry plane."""

    def __init__(self, *, slo: SLOMonitor | None = None):
        self.bus = TelemetryBus()
        self.estimator = NodeEstimator()
        self.ledger = Ledger()
        self.slo = slo if slo is not None else SLOMonitor(default_objectives())

    # -- tracer hookup ------------------------------------------------------

    def attach(self) -> "LivePlane":
        """Install this plane as the global tracer's span sink."""
        obs.get_tracer().set_sink(self.publish_span)
        return self

    def detach(self) -> None:
        obs.get_tracer().set_sink(None)

    @property
    def attached(self) -> bool:
        """Whether the tracer feeds this plane right now — read off the
        tracer, so a sink it dropped for raising reads as detached."""
        return obs.get_tracer().sink == self.publish_span

    # -- the publication entry point (SPAN-COVERAGE enforced) ---------------

    def publish_span(self, record: Mapping[str, Any]) -> None:
        """Sink for one finished span: ledger, estimator, SLOs, then the bus."""
        name = record.get("name")
        duration = record.get("duration_s")
        attrs = record.get("attrs") or {}
        if "energy_j" in attrs:
            energy = float(attrs["energy_j"])
            dirty = float(attrs.get("dirty_energy_j", 0.0))
            self.ledger.charge(current_tenant(), green_j=energy - dirty, dirty_j=dirty)
            if name == "task.execute":
                self.estimator.observe_task(attrs)
        elif name == "service.queue_wait":
            self.slo.record("queue_wait", duration)
        elif name == "service.run":
            if "queue_wait_s" in attrs:
                self.slo.record("job_latency", attrs["queue_wait_s"] + duration)
            if "total_dirty_energy_j" in attrs:
                self.slo.record("dirty_j_per_job", float(attrs["total_dirty_energy_j"]))
        self.bus.publish(
            "span", name=name, duration_s=duration, tenant=current_tenant(), attrs=attrs
        )

    # -- read side ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One JSON-ready view of the whole plane (the ``/live`` body)."""
        return {
            "time_s": time.time(),
            "bus": self.bus.stats(),
            "nodes": self.estimator.snapshot(),
            "tenants": self.ledger.totals(),
            "slo": self.slo.status(),
        }

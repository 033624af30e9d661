"""``repro.service`` — the always-on partition job service.

Wraps the batch framework (:class:`~repro.core.framework.ParetoPartitioner`
over a persistent engine) behind an asynchronous submission API so one
long-lived process serves sustained multi-tenant traffic:

- :mod:`repro.service.jobs` — job specs, lifecycle states, records;
- :mod:`repro.service.executor` — shared engine + per-scenario prepared
  cache (repeat jobs ride the shared-memory dataplane for free);
- :mod:`repro.service.manager` — bounded queue, admission control,
  per-tenant caps, backpressure with retry-after hints, TTL-evicted
  results, graceful drain;
- :mod:`repro.service.http` — stdlib HTTP front end
  (submit/status/result/cancel/healthz/metrics);
- :mod:`repro.service.client` — keep-alive stdlib client for the API.

Quick start (in-process)::

    from repro.service import build_service

    service = build_service(engine="simulated", port=0)
    server = service.server.start()
    record = service.manager.submit(JobSpec(workload="apriori"))
    ...
    service.manager.shutdown()
    server.stop()

Or from the CLI: ``repro serve`` / ``repro submit``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.client import ServiceClient, ServiceResponse, ServiceUnavailableError
from repro.service.executor import ScenarioExecutor, build_executor
from repro.service.http import ServiceHTTPServer
from repro.service.jobs import (
    JobRecord,
    JobSpec,
    JobState,
    MINING_WORKLOADS,
    SERVICE_WORKLOADS,
    TERMINAL_STATES,
)
from repro.service.manager import JobManager, ServiceConfig

__all__ = [
    "JobSpec",
    "JobRecord",
    "JobState",
    "TERMINAL_STATES",
    "MINING_WORKLOADS",
    "SERVICE_WORKLOADS",
    "ScenarioExecutor",
    "build_executor",
    "JobManager",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ServiceClient",
    "ServiceResponse",
    "ServiceUnavailableError",
    "PartitionService",
    "build_service",
]


@dataclass
class PartitionService:
    """One assembled service: executor + manager + HTTP server."""

    executor: ScenarioExecutor
    manager: JobManager
    server: ServiceHTTPServer

    @property
    def url(self) -> str:
        return self.server.url

    def close(self) -> None:
        """Graceful stop: drain jobs, release the engine, stop HTTP."""
        self.manager.shutdown()
        self.server.stop()

    def __enter__(self) -> "PartitionService":
        self.server.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_service(
    *,
    engine: str = "process",
    num_nodes: int = 4,
    max_workers: int | None = None,
    seed: int = 0,
    host: str = "127.0.0.1",
    port: int = 8642,
    config: ServiceConfig | None = None,
) -> PartitionService:
    """Assemble executor, manager and HTTP server (server not started)."""
    executor = build_executor(
        engine, num_nodes=num_nodes, max_workers=max_workers, seed=seed
    )
    manager = JobManager(executor, config)
    server = ServiceHTTPServer(manager, host=host, port=port)
    return PartitionService(executor=executor, manager=manager, server=server)

"""Job records for the always-on partition service.

A *job* is one request to run the framework pipeline — a workload on a
registry dataset with a per-request operating point (``alpha``) — on
the service's long-lived cluster. :class:`JobSpec` is the validated
request payload (what crosses the HTTP boundary), :class:`JobRecord`
is the server-side lifecycle record the :class:`~repro.service.manager.JobManager`
moves through

::

    QUEUED → RUNNING → SUCCEEDED | FAILED
       ↘ CANCELLED                     (cancel while queued)

plus the admission-control terminal state ``REJECTED`` (never queued:
queue full, tenant over its in-flight cap, or the service draining).
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any

from repro.data.datasets import DATASET_KINDS, DATASET_NAMES
from repro.workloads.catalog import WORKLOADS

__all__ = [
    "JobState",
    "TERMINAL_STATES",
    "JobSpec",
    "JobRecord",
    "MINING_WORKLOADS",
    "SERVICE_WORKLOADS",
    "build_workload",
    "default_placement",
]

SERVICE_WORKLOADS = tuple(WORKLOADS)
MINING_WORKLOADS = tuple(name for name, spec in WORKLOADS.items() if spec.mining)


class JobState(str, Enum):
    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    REJECTED = "REJECTED"


TERMINAL_STATES = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED, JobState.REJECTED}
)

_ids = itertools.count(1)


def _new_job_id() -> str:
    # pid prefix keeps ids unique if two services share a results dir.
    return f"job-{os.getpid():x}-{next(_ids):06d}"


def default_placement(workload: str) -> str:
    """Similar-together for compression, representative for mining."""
    return WORKLOADS[workload].placement


def build_workload(name: str, support: float):
    """Instantiate a workload by service name."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return WORKLOADS[name].build(support)


def _number(name: str, value: Any) -> float:
    """``value`` if it is a finite int or float (not a bool), else a
    ValueError naming the field."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    raise ValueError(f"{name} must be a finite number")


@dataclass(frozen=True)
class JobSpec:
    """One validated job request.

    ``alpha`` is the per-request operating point of the scalarized
    objective (``None`` = the stratified equal-split baseline); the
    service turns it into a :class:`~repro.core.strategies.Strategy`
    per job, so tenants pick time-vs-dirty-energy per request instead
    of per deployment.
    """

    workload: str = "apriori"
    dataset: str = "rcv1"
    support: float = 0.1
    alpha: float | None = 1.0
    placement: str | None = None
    size_scale: float = 0.1
    seed: int = 0
    tenant: str = "default"

    def validate(self) -> None:
        if self.workload not in SERVICE_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from {SERVICE_WORKLOADS}"
            )
        if self.dataset not in DATASET_NAMES:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; choose from {DATASET_NAMES}"
            )
        WORKLOADS[self.workload].check_runs_on(
            DATASET_KINDS[self.dataset], self.dataset
        )
        if not 0.0 < _number("support", self.support) <= 1.0:
            raise ValueError("support must be in (0, 1]")
        if self.alpha is not None and not 0.0 <= _number("alpha", self.alpha) <= 1.0:
            raise ValueError("alpha must be in [0, 1] (or null for the baseline)")
        if self.placement not in (None, "representative", "similar", "random"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if _number("size_scale", self.size_scale) <= 0:
            raise ValueError("size_scale must be positive")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")

    @property
    def effective_placement(self) -> str:
        return self.placement or default_placement(self.workload)

    def to_dict(self) -> dict[str, Any]:
        # Every status poll calls this: the instance dict is exactly
        # the fields, in order, without asdict's deep copy.
        return dict(vars(self))

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError("job spec must be a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown job spec fields: {sorted(unknown)}")
        spec = cls(**payload)
        spec.validate()
        return spec


@dataclass
class JobRecord:
    """Server-side lifecycle record for one submitted job.

    Monotonic timestamps drive queue-wait/run math; the wall clock
    (``submitted_wall_s``) anchors the job's obs spans on the same axis
    as the rest of the trace.
    """

    spec: JobSpec
    state: JobState = JobState.QUEUED
    job_id: str = field(default_factory=_new_job_id)
    submitted_at: float = field(default_factory=time.monotonic)
    submitted_wall_s: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    reject_reason: str | None = None
    retry_after_s: float | None = None
    cancel_requested: bool = False
    expires_at: float | None = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def queue_wait_s(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_s(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready status view (result ships separately)."""
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state.value,
            "spec": self.spec.to_dict(),
            "queue_wait_s": self.queue_wait_s,
            "run_s": self.run_s,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
        }
        if self.state is JobState.REJECTED:
            out["reject_reason"] = self.reject_reason
            out["retry_after_s"] = self.retry_after_s
        return out

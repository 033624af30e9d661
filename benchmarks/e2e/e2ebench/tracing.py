"""Benchmark-side spans around the layers' public entry points.

The program is measured from outside: :class:`SpanRecorder` swaps a
timing wrapper onto each public method listed in :func:`_targets`
(restored on :meth:`SpanRecorder.uninstall`). The repo's own ``obs``
spans are not read, so a change that moves them cannot move these
numbers. Spans stay in memory and are written out once, at exit.

A span records name, start, end, parent and the id of the op it
belongs to. A layer's number is its *self time*: span duration minus
the part its direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.cluster.dataplane import SharedPartitionStore
from repro.cluster.engines import ExecutionEngine
from repro.core.budget import CarbonBudgetPlanner
from repro.core.framework import ParetoPartitioner
from repro.core.heterogeneity import ProgressiveSampler
from repro.core.optimizer import ParetoOptimizer
from repro.kvstore.client import ClusterClient
from repro.service.client import ServiceClient
from repro.service.executor import ScenarioExecutor
from repro.service.manager import JobManager
from repro.stratify.stratifier import Stratifier
from repro.workloads.base import Workload


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: Any
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _worker_busy_s(engine: ExecutionEngine, job) -> float:
    """Σ worker wall of a job, undoing the engine's speed/overhead
    emulation: ``runtime = (overhead + wall) / speed``."""
    busy = 0.0
    for task in job.tasks:
        node = engine.cluster[task.node_id]
        busy += task.runtime_s * node.speed_factor - node.task_overhead_s
    return busy


@dataclass(frozen=True)
class Target:
    """One wrapped method. ``op_in(args)`` names the op before the call
    (so children inherit it), ``op_out(result)`` after it, and
    ``attrs(args, result)`` adds fields; ``args[0]`` is ``self``."""

    cls: type
    method: str
    op_in: Callable | None = None
    op_out: Callable | None = None
    attrs: Callable | None = None


def _targets() -> list[Target]:
    return [
        Target(Stratifier, "sketch"),
        Target(Stratifier, "stratify", attrs=lambda a, r: {"items": len(a[1])}),
        Target(ProgressiveSampler, "profile"),
        Target(ParetoOptimizer, "solve"),
        Target(CarbonBudgetPlanner, "plan"),
        Target(ParetoPartitioner, "prepare"),
        Target(ParetoPartitioner, "plan"),
        Target(ParetoPartitioner, "place"),
        Target(ParetoPartitioner, "execute"),
        Target(ParetoPartitioner, "execute_fpm"),
        Target(ClusterClient, "put_partition"),
        Target(ClusterClient, "get_partition"),
        Target(SharedPartitionStore, "put_many"),
        Target(
            ExecutionEngine,
            "run_job",
            attrs=lambda a, r: {"busy_s": _worker_busy_s(a[0], r)},
        ),
        Target(ExecutionEngine, "profile_all_nodes"),
        Target(Workload, "merge"),
        Target(JobManager, "submit", op_out=lambda r: r.job_id),
        Target(JobManager, "run_record", op_in=lambda a: a[1].job_id),
        Target(ScenarioExecutor, "prepared_for"),
        Target(ScenarioExecutor, "run"),
        Target(ServiceClient, "submit"),
        Target(ServiceClient, "result"),
    ]


def _owners(base: type, method: str) -> Iterable[type]:
    """``base`` and every imported subclass that defines ``method``
    itself (engines and workloads override their base's)."""
    seen, stack = set(), [base]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        if method in vars(cls):
            yield cls


class SpanRecorder:
    """Installs the wrappers, holds the spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[type, str, Any]] = []

    # -- the client thread names the op its calls belong to ----------------

    def set_op(self, op: Any) -> None:
        self._local.op = op

    def _wrap(self, name: str, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if target.op_in is not None:
                op = target.op_in(args)
            else:
                op = parent.op if parent else getattr(local, "op", None)
            span = Span(
                sid=next(self._ids),
                name=name,
                parent=parent.sid if parent else None,
                op=op,
                start=time.perf_counter(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if target.op_out is not None:
                span.op = target.op_out(result)
            if target.attrs is not None:
                span.attrs = target.attrs(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for target in _targets():
            for cls in _owners(target.cls, target.method):
                original = vars(cls)[target.method]
                name = f"{cls.__name__}.{target.method}"
                setattr(cls, target.method, self._wrap(name, original, target))
                self._installed.append((cls, target.method, original))

    def uninstall(self) -> None:
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    def write_jsonl(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "parent": s.parent,
                            "op": s.op,
                            "start": s.start,
                            "end": s.end,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )


# -- aggregation ------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the duration of its direct children."""
    out = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total

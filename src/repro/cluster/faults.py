"""Fault injection: node failures mid-job with recovery re-execution.

The paper's Section II motivates heterogeneity with node churn ("nodes
fail periodically and are often replaced with upgraded hardware").
:class:`FaultInjectingEngine` is the simulated engine with a different
*schedule* step (see :mod:`repro.cluster.engines`): it kills chosen
nodes at chosen times, so a partition running on a failed node is
lost (its energy is still charged — wasted work costs real joules, read
as :attr:`~repro.cluster.engines.JobResult.wasted_energy_j`) and
re-executed, after a detection latency, on the surviving node that can
finish it earliest. Because the framework's partitions are independent
(Savasere phase 1, per-partition compression), recovery is exactly
re-running the lost partitions — no global restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.obs as obs
from repro.cluster.cluster import Cluster
from repro.cluster.engines import SimulatedEngine


@dataclass
class FaultInjectingEngine(SimulatedEngine):
    """Simulated engine with scheduled node failures.

    Parameters
    ----------
    cluster:
        Target cluster.
    fail_at:
        ``node_id → failure time (s)``; the node stops executing at
        that instant and never recovers within the job.
    unit_rate:
        Work units per second at speed 1 (as in the simulated engine).
    detection_latency_s:
        Delay before a lost partition can restart elsewhere.
    """

    cluster: Cluster
    fail_at: dict[int, float] = field(default_factory=dict)
    unit_rate: float = 5e4
    detection_latency_s: float = 1.0

    def __post_init__(self) -> None:
        SimulatedEngine.__init__(self, self.cluster, self.unit_rate)
        if self.detection_latency_s < 0:
            raise ValueError("detection_latency_s must be non-negative")
        for node, t in self.fail_at.items():
            if not 0 <= node < self.cluster.num_nodes:
                raise ValueError(f"unknown node {node}")
            if t < 0:
                raise ValueError("failure times must be non-negative")
        if len(self.fail_at) >= self.cluster.num_nodes:
            raise ValueError("at least one node must survive")

    def _schedule(self, workload, partitions, assignment, job_span, wall0):
        """Nominal placement until each node's failure time, then lost
        partitions re-run on the survivor that finishes them earliest."""
        job_span.set_attr("failures", len(self.fail_at))
        measured = self._measure(workload, partitions)
        clock = {node: 0.0 for node in range(self.cluster.num_nodes)}
        events = []
        orphans: list[tuple[int, float]] = []  # (partition id, loss time)

        for pid, ((result, raw), node_id) in enumerate(zip(measured, assignment)):
            runtime = self._runtime(self.cluster[node_id], raw)
            fail_time = self.fail_at.get(node_id)
            start = clock[node_id]
            if fail_time is None or (start < fail_time and start + runtime <= fail_time):
                events.append((pid, node_id, start, runtime, result, False))
                clock[node_id] = start + runtime
                continue
            if start < fail_time:
                # Partial run wasted; node burns power until it dies.
                events.append((pid, node_id, start, fail_time - start, result, True))
                clock[node_id] = fail_time
            orphans.append((pid, fail_time))
            obs.emit(
                "fault.injected",
                wall0 + fail_time,
                0.0,
                node_id=node_id,
                partition_id=pid,
                lost_at_s=fail_time,
            )

        survivors = [n for n in clock if n not in self.fail_at]
        for pid, lost_at in sorted(orphans, key=lambda o: o[1]):
            ready = lost_at + self.detection_latency_s
            result, raw = measured[pid]
            placed = {
                n: (max(clock[n], ready), self._runtime(self.cluster[n], raw))
                for n in survivors
            }
            best = min(placed, key=lambda n: placed[n][0] + placed[n][1])
            start, runtime = placed[best]
            events.append((pid, best, start, runtime, result, False))
            clock[best] = start + runtime
            obs.emit(
                "fault.retried",
                wall0 + start,
                runtime,
                partition_id=pid,
                node_id=best,
                detection_latency_s=self.detection_latency_s,
            )
        return events

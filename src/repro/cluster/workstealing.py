"""Work-stealing baseline scheduler (paper Section I).

The paper's motivation argues the "typical solution" — work stealing
(Blumofe & Leiserson) — does not suit distributed analytics because
these workloads are sensitive to the *payload*, not just the size, of
the data: a stolen chunk is processed as its own unit, so for
partition-based mining every steal effectively creates a new partition,
growing the locally-frequent candidate union and with it the global
pruning cost. Stealing also pays data-movement costs the planner-based
approach avoids.

:class:`WorkStealingScheduler` is the simulated engine with a
different *schedule* step (see :mod:`repro.cluster.engines`): it
simulates chunk-level stealing over the emulated cluster — partitions are split into fixed-size chunks, each
node drains its own queue and, when idle, steals the tail chunk of the
most-loaded victim, paying a latency plus per-item transfer cost. The
chunk outputs are merged with the workload's own ``merge``, so the
candidate-inflation effect is measured, not assumed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import repro.obs as obs
from repro.cluster.cluster import Cluster
from repro.cluster.engines import SimulatedEngine
from repro.kvstore.codec import records_of

#: Per-chunk dispatch cost at unit speed (much smaller than a partition
#: launch — chunks run inside an already-started task).
CHUNK_OVERHEAD_S = 0.005


@dataclass
class StealEvent:
    """One successful steal, for diagnostics."""

    time_s: float
    thief: int
    victim: int
    chunk_items: int


@dataclass
class WorkStealingScheduler(SimulatedEngine):
    """Chunk-level work stealing on an emulated heterogeneous cluster.

    Parameters
    ----------
    cluster:
        Target cluster (speeds drive per-chunk runtimes).
    unit_rate:
        Work units per second at speed 1 (match the engine used for
        the planner-based comparison).
    chunk_size:
        Items per chunk; the stealing granularity.
    steal_latency_s:
        Fixed cost per steal (coordination round trip).
    transfer_s_per_item:
        Data-movement cost per stolen item, charged to the thief.
    """

    cluster: Cluster
    unit_rate: float = 5e4
    chunk_size: int = 32
    steal_latency_s: float = 0.05
    transfer_s_per_item: float = 0.001
    events: list[StealEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        SimulatedEngine.__init__(self, self.cluster, self.unit_rate)
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.steal_latency_s < 0 or self.transfer_s_per_item < 0:
            raise ValueError("costs must be non-negative")

    def _schedule(self, workload, partitions, assignment, job_span, wall0):
        """Event-driven greedy simulation over a heap of ``(ready_time,
        node)``: a node drains its own chunk queue, then steals the
        tail chunk of the most-loaded victim. Every chunk is its own
        task, so the job has one event per chunk, in execution order."""
        p = self.cluster.num_nodes
        chunks, homes = [], []
        for part, node in zip(partitions, assignment):
            records = records_of(part)
            for i in range(0, len(records), self.chunk_size):
                chunks.append(list(records[i : i + self.chunk_size]))
                homes.append(node)
        # Measure each chunk once; its runtime depends on who ends up
        # running it, so only the result is kept.
        measured = self._measure(workload, chunks)
        queues: list[list[tuple[int, object]]] = [[] for _ in range(p)]
        for chunk, home, (result, _) in zip(chunks, homes, measured):
            queues[home].append((len(chunk), result))

        def remaining_items(node: int) -> int:
            return sum(items for items, _ in queues[node])

        self.events = []
        events = []
        heap = [(0.0, node) for node in range(p)]
        heapq.heapify(heap)
        while heap:
            now, node = heapq.heappop(heap)
            overhead = 0.0
            if queues[node]:
                items, result = queues[node].pop(0)
            else:
                victim = max(range(p), key=remaining_items)
                if remaining_items(victim) == 0:
                    continue  # global queue drained; this node retires
                items, result = queues[victim].pop()  # steal the tail chunk
                overhead = self.steal_latency_s + self.transfer_s_per_item * items
                self.events.append(
                    StealEvent(time_s=now, thief=node, victim=victim, chunk_items=items)
                )
                obs.emit(
                    "worksteal.steal",
                    wall0 + now,
                    overhead,
                    thief=node,
                    victim=victim,
                    chunk_items=items,
                )
            speed = self.cluster[node].speed_factor
            runtime = (
                overhead
                + CHUNK_OVERHEAD_S / speed
                + result.work_units / (self.unit_rate * speed)
            )
            events.append((len(events), node, now, runtime, result))
            heapq.heappush(heap, (now + runtime, node))
        job_span.set_attr("chunk_size", self.chunk_size)
        job_span.set_attr("steals", len(self.events))
        return events

    @property
    def num_steals(self) -> int:
        return len(self.events)

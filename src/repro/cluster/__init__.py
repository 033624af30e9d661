"""Emulated heterogeneous cluster substrate.

The paper injects heterogeneity into a homogeneous Xeon cluster with
busy loops (relative speeds x, 2x, 3x, 4x) and assigns each machine type
a PVWATTS energy trace from one of four Google data-center sites. This
subpackage reproduces that environment in-process:

- :class:`~repro.cluster.node.Node` — speed factor, core count, power
  model and green-energy accountant per node;
- :func:`~repro.cluster.cluster.paper_cluster` — the 4-type preset;
- execution engines that run partitioned workloads either in
  deterministic simulated time (work units ÷ speed) or on a real
  process pool, billing each task's worker CPU time ÷ speed.
"""

from repro.cluster.node import Node, NodeType, PAPER_NODE_TYPES
from repro.cluster.cluster import Cluster, paper_cluster, homogeneous_cluster
from repro.cluster.engines import (
    ExecutionEngine,
    SimulatedEngine,
    ProcessPoolEngine,
    JobResult,
    TaskResult,
)
from repro.cluster.workstealing import WorkStealingScheduler, StealEvent
from repro.cluster.faults import FaultInjectingEngine
from repro.cluster.scenarios import (
    SCENARIOS,
    geo_distributed_cluster,
    iswitch_cluster,
    rack_level_cluster,
)

__all__ = [
    "WorkStealingScheduler",
    "StealEvent",
    "FaultInjectingEngine",
    "SCENARIOS",
    "geo_distributed_cluster",
    "iswitch_cluster",
    "rack_level_cluster",
    "Node",
    "NodeType",
    "PAPER_NODE_TYPES",
    "Cluster",
    "paper_cluster",
    "homogeneous_cluster",
    "ExecutionEngine",
    "SimulatedEngine",
    "ProcessPoolEngine",
    "JobResult",
    "TaskResult",
]

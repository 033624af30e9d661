"""Cluster assembly and the paper's 4-type preset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.cluster.node import Node, NodeType, PAPER_NODE_TYPES
from repro.energy.traces import GOOGLE_DC_LOCATIONS, EnergyTrace, Location, generate_trace
from repro.kvstore.client import ClusterClient

#: Length of every preset node's renewable trace (a window past its end
#: is billed at the final sample).
TRACE_DURATION_S = 6 * 3600.0


def _site_trace(location: Location, seed: int, **kwargs) -> EnergyTrace:
    """A preset node's renewable trace at ``location``:
    :data:`TRACE_DURATION_S` long, one sample a minute, weather
    realisation ``seed`` (``kwargs`` go to :func:`generate_trace`)."""
    return generate_trace(
        location, duration_s=TRACE_DURATION_S, resolution_s=60.0, seed=seed, **kwargs
    )


def _grid_tied_trace() -> EnergyTrace:
    """A preset node with no green supply at all."""
    return EnergyTrace(watts=np.zeros(int(TRACE_DURATION_S / 60.0)), resolution_s=60.0)


def _paper_node(i: int, seed: int, task_overhead_s: float = 0.5, **trace_kwargs) -> Node:
    """Node ``i`` of the paper preset: machine type and Google DC site
    cycled, its own weather realisation."""
    location = GOOGLE_DC_LOCATIONS[i % len(GOOGLE_DC_LOCATIONS)]
    return Node(
        node_id=i,
        node_type=PAPER_NODE_TYPES[i % len(PAPER_NODE_TYPES)],
        trace=_site_trace(location, seed * 1009 + i, **trace_kwargs),
        task_overhead_s=task_overhead_s,
    )


@dataclass
class Cluster:
    """An ordered collection of nodes plus their shared KV middleware."""

    nodes: list[Node]
    kv: ClusterClient = field(init=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if ids != list(range(len(self.nodes))):
            raise ValueError("node ids must be dense 0..p-1 in order")
        self.kv = ClusterClient(num_nodes=len(self.nodes))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __getitem__(self, idx: int) -> Node:
        return self.nodes[idx]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def dirty_power_coefficients(self) -> np.ndarray:
        return np.array(
            [n.dirty_power_coefficient() for n in self.nodes], dtype=np.float64
        )


def paper_cluster(
    num_nodes: int,
    *,
    seed: int = 0,
    task_overhead_s: float = 0.5,
) -> Cluster:
    """Build the paper's emulated heterogeneous cluster.

    Nodes cycle through the four machine types (speeds 4x..1x) and the
    four Google DC locations, so an 8-node cluster has two of each type
    as in the paper's 8-partition configuration. Each node gets an
    independent seeded weather realisation.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    return Cluster(nodes=[_paper_node(i, seed, task_overhead_s) for i in range(num_nodes)])


def homogeneous_cluster(
    num_nodes: int,
    *,
    speed_factor: float = 1.0,
    cores: int = 2,
    seed: int = 0,
) -> Cluster:
    """A control cluster with identical nodes (Wang et al.'s setting)."""
    ntype = NodeType(type_id=0, speed_factor=speed_factor, cores=cores)
    location = GOOGLE_DC_LOCATIONS[0]
    nodes = [
        Node(
            node_id=i,
            node_type=ntype,
            trace=_site_trace(location, seed * 1009 + i),
        )
        for i in range(num_nodes)
    ]
    return Cluster(nodes=nodes)

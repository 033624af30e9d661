"""Cluster node model: speed, cores, power and green energy per node.

Machine types follow the paper's emulation: type 1 runs no busy loops
(fastest, relative speed 4x, 4 effective cores, 440 W), down to type 4
(slowest, 1x, 1 core, 155 W).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.power import NodePowerModel
from repro.energy.traces import EnergyTrace


@dataclass(frozen=True)
class NodeType:
    """A machine class in the emulated heterogeneous cluster."""

    type_id: int
    speed_factor: float
    cores: int

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if self.cores <= 0:
            raise ValueError("cores must be positive")

    def power_model(self) -> NodePowerModel:
        return NodePowerModel(cores=self.cores)


#: The paper's four machine types: speeds 4x..1x, cores 4..1.
PAPER_NODE_TYPES: tuple[NodeType, ...] = tuple(
    NodeType(type_id=t, speed_factor=float(5 - t), cores=5 - t) for t in (1, 2, 3, 4)
)


@dataclass
class Node:
    """One emulated cluster node.

    Parameters
    ----------
    node_id:
        Dense id within the cluster (also the KV-store routing key).
    node_type:
        Machine class (speed + cores + power).
    trace:
        Green-energy trace of the site hosting this node; what the node
        bills against, so assigning a new trace re-bills what follows.
    task_overhead_s:
        Fixed per-task startup cost at unit speed; surfaces as the
        intercept ``c_i`` the regression learns.

    The node's power model, ``power``, is built once from ``node_type``.
    """

    node_id: int
    node_type: NodeType
    trace: EnergyTrace
    task_overhead_s: float = 0.5
    power: NodePowerModel = field(init=False)

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if self.task_overhead_s < 0:
            raise ValueError("task_overhead_s must be non-negative")
        self.power = self.node_type.power_model()

    @property
    def speed_factor(self) -> float:
        return self.node_type.speed_factor

    @property
    def watts(self) -> float:
        return self.power.watts

    def runtime_for_work(self, work_units: float, unit_rate: float) -> float:
        """Emulated runtime (s) to process ``work_units`` on this node.

        ``unit_rate`` is the cluster-wide work-unit throughput of a
        speed-1 machine; the busy-loop emulation divides it by the
        node's speed factor and adds the per-task overhead.
        """
        if work_units < 0:
            raise ValueError("work_units must be non-negative")
        if unit_rate <= 0:
            raise ValueError("unit_rate must be positive")
        return self.task_overhead_s / self.speed_factor + work_units / (
            unit_rate * self.speed_factor
        )

    def dirty_power_coefficient(self) -> float:
        """``k_i = E_i − ḠE_i`` for the LP, with ``ḠE_i`` the whole
        trace's mean (W).

        The green supply credited to a node is capped at its own draw —
        a node cannot bank more green power than it consumes. The
        planner's estimate ``k_i · f_i(x_i)`` is
        :func:`repro.core.optimizer.predict_dirty_energy`.
        """
        mean_green = self.trace.mean_power(0.0)
        return max(self.power.watts - mean_green, 0.0)

    def bill(self, runtime_s: float, start_s: float = 0.0) -> tuple[float, float]:
        """``(energy_j, dirty_energy_j)`` of running flat-out over
        ``[start_s, start_s + runtime_s)`` of the node's trace: the draw
        ``E_i · runtime`` and its exact deficit ``∫ max(0, E_i − GE_i(t))
        dt`` against the green supply (see
        :meth:`~repro.energy.traces.EnergyTrace.deficit_joules`)."""
        return (
            self.power.energy_joules(runtime_s),
            self.trace.deficit_joules(self.power.watts, start_s, runtime_s),
        )

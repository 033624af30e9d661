"""Data-center renewable-design scenarios (paper Section II).

The paper motivates energy heterogeneity with three contemporary
designs; each maps to a cluster preset here so their Pareto frontiers
can be compared:

1. **Rack-level renewables** (Deng, Stewart & Li) — grid ties and solar
   supplies sit at rack/server level, so otherwise-identical nodes see
   *different panel sizes*.
2. **iSwitch** (Li, Qouneh & Li) — some racks are fully green-powered,
   some fully grid-tied; jobs should prefer the green racks.
3. **Geo-distributed** (Zhang, Wang & Wang) — nodes live in different
   regions with different weather; this is the default
   :func:`~repro.cluster.cluster.paper_cluster` preset.

All presets keep the paper's 4-type speed/power mix so the *computational*
heterogeneity is identical — only the green-supply structure differs.
"""

from __future__ import annotations

from repro.cluster.cluster import (
    Cluster,
    _grid_tied_trace,
    _paper_node,
    _site_trace,
    paper_cluster,
)
from repro.cluster.node import PAPER_NODE_TYPES, Node
from repro.energy.solar import SolarPanel
from repro.energy.traces import GOOGLE_DC_LOCATIONS

#: Rated panel watts per rack of the rack-level design (0 W = a purely
#: grid-tied rack), cycled over the nodes.
RACK_PANEL_WATTS = (800.0, 400.0, 200.0, 0.0)


def rack_level_cluster(num_nodes: int, *, seed: int = 0) -> Cluster:
    """Rack-level renewables: one site, per-rack panel capacity.

    Node ``i`` gets the next panel of :data:`RACK_PANEL_WATTS`, cycled.
    All nodes share one location/weather, so energy heterogeneity comes
    purely from provisioning.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    location = GOOGLE_DC_LOCATIONS[1]
    nodes = []
    for i in range(num_nodes):
        watts = RACK_PANEL_WATTS[i % len(RACK_PANEL_WATTS)]
        if watts > 0:
            # One shared weather realisation.
            trace = _site_trace(location, seed * 1009, panel=SolarPanel(rated_dc_watts=watts))
        else:
            trace = _grid_tied_trace()
        nodes.append(
            Node(
                node_id=i,
                node_type=PAPER_NODE_TYPES[i % len(PAPER_NODE_TYPES)],
                trace=trace,
            )
        )
    return Cluster(nodes=nodes)


def iswitch_cluster(
    num_nodes: int,
    *,
    green_fraction: float = 0.5,
    seed: int = 0,
) -> Cluster:
    """iSwitch: racks are either fully green or fully grid-tied.

    The first ``round(green_fraction · num_nodes)`` nodes get a panel
    large enough to cover their peak draw under typical daylight; the
    rest get none.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if not 0.0 <= green_fraction <= 1.0:
        raise ValueError("green_fraction must be in [0, 1]")
    num_green = int(round(green_fraction * num_nodes))
    location = GOOGLE_DC_LOCATIONS[3]  # the sunniest preset
    nodes = []
    for i in range(num_nodes):
        ntype = PAPER_NODE_TYPES[i % len(PAPER_NODE_TYPES)]
        if i < num_green:
            # Panel sized ~3x the node's draw: covers it through clouds.
            panel = SolarPanel(rated_dc_watts=3.0 * ntype.power_model().watts)
            trace = _site_trace(location, seed * 1009 + i, panel=panel)
        else:
            trace = _grid_tied_trace()
        nodes.append(Node(node_id=i, node_type=ntype, trace=trace))
    return Cluster(nodes=nodes)


def spread_cluster(num_nodes: int, max_speed_ratio: float, *, seed: int = 0) -> Cluster:
    """A cluster whose speeds span ``1x .. max_speed_ratio·x``.

    Four machine classes with geometrically spaced speeds (ratio 1 ⇒
    homogeneous), cores scaled to keep power ∝ speed class as in the
    paper's preset. For studying how the Het-Aware gain grows with the
    degree of computational heterogeneity (EC2's reported 2x variation
    up to the paper's 4x emulation and beyond).
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if max_speed_ratio < 1.0:
        raise ValueError("max_speed_ratio must be >= 1")
    from repro.cluster.node import NodeType

    speeds = [max_speed_ratio ** (i / 3.0) for i in (3, 2, 1, 0)]
    types = [
        NodeType(type_id=i + 1, speed_factor=s, cores=max(1, round(s)))
        for i, s in enumerate(speeds)
    ]
    nodes = []
    for i in range(num_nodes):
        location = GOOGLE_DC_LOCATIONS[i % len(GOOGLE_DC_LOCATIONS)]
        nodes.append(
            Node(
                node_id=i,
                node_type=types[i % len(types)],
                trace=_site_trace(location, seed * 1009 + i),
            )
        )
    return Cluster(nodes=nodes)


def cluster_at_hour(num_nodes: int, start_hour: float, *, seed: int = 0) -> Cluster:
    """The geo-distributed preset with every trace starting at a chosen
    local solar hour — for time-of-day scheduling studies."""
    if not 0.0 <= start_hour < 24.0:
        raise ValueError("start_hour must be in [0, 24)")
    return Cluster(
        nodes=[_paper_node(i, seed, start_hour=start_hour) for i in range(num_nodes)]
    )


SCENARIOS = {
    "rack-level": rack_level_cluster,
    "iswitch": iswitch_cluster,
    "geo-distributed": paper_cluster,
}

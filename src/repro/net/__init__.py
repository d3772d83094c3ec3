"""Network substrate: topologies and static routing."""

from .routing import Router, RoutingError
from .topology import (
    DEFAULT_BANDWIDTH,
    DEFAULT_PROPAGATION,
    DEFAULT_WAN_LATENCY,
    Topology,
    TopologyError,
    bus_topology,
    dual_star_topology,
    full_mesh_topology,
    geo_topology,
    line_topology,
    mesh_topology,
    parse_topology_spec,
    ring_topology,
    star_topology,
    topology_from_spec,
)

__all__ = [
    "Router",
    "RoutingError",
    "DEFAULT_BANDWIDTH",
    "DEFAULT_PROPAGATION",
    "DEFAULT_WAN_LATENCY",
    "Topology",
    "TopologyError",
    "bus_topology",
    "dual_star_topology",
    "full_mesh_topology",
    "geo_topology",
    "line_topology",
    "mesh_topology",
    "parse_topology_spec",
    "ring_topology",
    "star_topology",
    "topology_from_spec",
]

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
    ring_topology,
    star_topology,
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
    "ring_topology",
    "star_topology",
]

"""Network topologies for CPS deployments.

A :class:`Topology` bundles the simulator-facing objects — :class:`Node` and
:class:`Link` instances — with a :mod:`networkx` graph used for routing and
reachability analysis. Builders cover the shapes common in the CPS domain the
paper targets: a shared bus (CAN-like), ring (FlexRay-like), star and
dual-star (switched avionics backbones à la AFDX), line, grid mesh, and
fully-connected meshes for small controller clusters.

Workload endpoints (sources/sinks — the physical sensors and actuators) are
pinned to nodes through the topology's ``endpoint_map``.
"""

from __future__ import annotations

import zlib
from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..sim.clock import LocalClock
from ..sim.link import Link
from ..sim.node import Node


class TopologyError(ValueError):
    """Raised for malformed topologies, topology specs or endpoint
    placements."""


#: Default raw link bandwidth: 10 Mbps, typical of embedded backbones.
DEFAULT_BANDWIDTH = 10e6
#: Default propagation delay per link.
DEFAULT_PROPAGATION = 10


class Topology:
    """Nodes + links + a routing graph, with workload endpoint placement."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self.graph = nx.Graph()
        #: Maps workload source/sink names to hosting node ids.
        self.endpoint_map: Dict[str, str] = {}
        #: Region name -> sorted node ids, for region-tagged (geo)
        #: topologies; empty for flat deployments.
        self.regions: Dict[str, List[str]] = {}

    # ------------------------------------------------------------ building

    def add_node(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise TopologyError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        self.graph.add_node(node.node_id)
        if node.region is not None:
            members = self.regions.setdefault(node.region, [])
            insort(members, node.node_id)
        return node

    def add_link(self, link: Link) -> Link:
        if link.link_id in self.links:
            raise TopologyError(f"duplicate link id {link.link_id}")
        for endpoint in link.endpoints:
            if endpoint not in self.nodes:
                raise TopologyError(
                    f"link {link.link_id} references unknown node {endpoint}"
                )
        self.links[link.link_id] = link
        for endpoint in link.endpoints:
            self.nodes[endpoint].attach(link)
        # A multi-access link contributes a clique to the routing graph.
        endpoints = list(link.endpoints)
        for i, a in enumerate(endpoints):
            for b in endpoints[i + 1:]:
                self.graph.add_edge(a, b, link_id=link.link_id)
        return link

    def link_between(self, a: str, b: str) -> Link:
        data = self.graph.get_edge_data(a, b)
        if data is None:
            raise TopologyError(f"no link between {a} and {b}")
        return self.links[data["link_id"]]

    # --------------------------------------------------------- endpoints

    def place_endpoint(self, endpoint: str, node_id: str) -> None:
        if node_id not in self.nodes:
            raise TopologyError(f"unknown node {node_id}")
        self.endpoint_map[endpoint] = node_id

    def node_of_endpoint(self, endpoint: str) -> str:
        try:
            return self.endpoint_map[endpoint]
        except KeyError:
            raise TopologyError(f"endpoint {endpoint!r} not placed") from None

    def place_endpoints_round_robin(
        self, sources: Iterable[str], sinks: Iterable[str],
        spread: int = 1,
    ) -> None:
        """Deterministically pin sources/sinks to dedicated I/O nodes.

        Sensors go round-robin over the first ``spread`` nodes, actuators
        over the last ``spread`` — mirroring CPS deployments where physical
        I/O is wired to a few interface nodes, and leaving the remaining
        nodes free to host (and lose) computation.
        """
        node_ids = sorted(self.nodes)
        spread = max(1, min(spread, len(node_ids)))
        for i, src in enumerate(sorted(sources)):
            node_id = node_ids[i % spread]
            self.nodes[node_id].is_source = True
            self.place_endpoint(src, node_id)
        for i, sink in enumerate(sorted(sinks)):
            node_id = node_ids[len(node_ids) - 1 - (i % spread)]
            self.nodes[node_id].is_sink = True
            self.place_endpoint(sink, node_id)

    # ------------------------------------------------------------- queries

    def node_ids(self) -> List[str]:
        return sorted(self.nodes)

    def is_connected(self, excluding: Optional[set] = None) -> bool:
        """Connectivity of the routing graph, optionally minus some nodes."""
        g = self.graph
        if excluding:
            g = g.subgraph([n for n in g.nodes if n not in excluding])
        return len(g) > 0 and nx.is_connected(g)

    def diameter(self) -> int:
        return nx.diameter(self.graph)

    def neighbors(self, node_id: str) -> List[str]:
        return sorted(self.graph.neighbors(node_id))

    # -------------------------------------------------------------- regions

    def region_names(self) -> List[str]:
        """Region names in the canonical (sorted) order.

        Geo builders name regions so that this order equals the order of
        the regions' node-id blocks under plain string sort.
        """
        return sorted(self.regions)

    def wan_links(self) -> List[Link]:
        """Inter-region links, sorted by link id."""
        return [self.links[lid] for lid in sorted(self.links)
                if self.links[lid].is_wan]

    def min_wan_latency_us(self) -> int:
        """Minimum propagation delay over the WAN links: how long any
        region runs before another region's traffic can reach it.

        Raises :class:`TopologyError` when the topology has no WAN links.
        """
        wan = self.wan_links()
        if not wan:
            raise TopologyError(f"topology {self.name} has no WAN links")
        return min(link.propagation_us for link in wan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Topology({self.name}, {len(self.nodes)} nodes, "
                f"{len(self.links)} links)")


def _make_nodes(topology: Topology, count: int, speed: float,
                control_share: float) -> List[str]:
    ids = [f"n{i}" for i in range(count)]
    for node_id in ids:
        topology.add_node(Node(node_id, speed=speed, clock=LocalClock(),
                               control_share=control_share))
    return ids


def line_topology(n: int, bandwidth: float = DEFAULT_BANDWIDTH,
                  propagation: int = DEFAULT_PROPAGATION, speed: float = 1.0,
                  control_share: float = 0.1) -> Topology:
    """n0 — n1 — … — n(k-1)."""
    if n < 2:
        raise TopologyError("line topology needs >= 2 nodes")
    topo = Topology(name=f"line{n}")
    ids = _make_nodes(topo, n, speed, control_share)
    for i in range(n - 1):
        topo.add_link(Link(f"l{i}", (ids[i], ids[i + 1]), bandwidth,
                           propagation))
    return topo


def ring_topology(n: int, bandwidth: float = DEFAULT_BANDWIDTH,
                  propagation: int = DEFAULT_PROPAGATION, speed: float = 1.0,
                  control_share: float = 0.1) -> Topology:
    """A FlexRay-style ring; survives any single link failure."""
    if n < 3:
        raise TopologyError("ring topology needs >= 3 nodes")
    topo = Topology(name=f"ring{n}")
    ids = _make_nodes(topo, n, speed, control_share)
    for i in range(n):
        topo.add_link(Link(f"l{i}", (ids[i], ids[(i + 1) % n]), bandwidth,
                           propagation))
    return topo


def star_topology(n_leaves: int, bandwidth: float = DEFAULT_BANDWIDTH,
                  propagation: int = DEFAULT_PROPAGATION, speed: float = 1.0,
                  control_share: float = 0.1) -> Topology:
    """Leaves around a hub node (the hub is ``n0``)."""
    if n_leaves < 2:
        raise TopologyError("star topology needs >= 2 leaves")
    topo = Topology(name=f"star{n_leaves}")
    ids = _make_nodes(topo, n_leaves + 1, speed, control_share)
    hub = ids[0]
    for i, leaf in enumerate(ids[1:]):
        topo.add_link(Link(f"l{i}", (hub, leaf), bandwidth, propagation))
    return topo


def bus_topology(n: int, bandwidth: float = DEFAULT_BANDWIDTH,
                 propagation: int = DEFAULT_PROPAGATION, speed: float = 1.0,
                 control_share: float = 0.1) -> Topology:
    """A single shared CAN-style bus connecting all nodes."""
    if n < 2:
        raise TopologyError("bus topology needs >= 2 nodes")
    topo = Topology(name=f"bus{n}")
    ids = _make_nodes(topo, n, speed, control_share)
    topo.add_link(Link("bus", tuple(ids), bandwidth, propagation))
    return topo


def mesh_topology(rows: int, cols: int, bandwidth: float = DEFAULT_BANDWIDTH,
                  propagation: int = DEFAULT_PROPAGATION, speed: float = 1.0,
                  control_share: float = 0.1) -> Topology:
    """A rows×cols grid mesh."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError("mesh needs >= 2 nodes")
    topo = Topology(name=f"mesh{rows}x{cols}")
    ids = [f"n{r * cols + c}" for r in range(rows) for c in range(cols)]
    for node_id in ids:
        topo.add_node(Node(node_id, speed=speed, clock=LocalClock(),
                           control_share=control_share))
    link_idx = 0
    for r in range(rows):
        for c in range(cols):
            here = f"n{r * cols + c}"
            if c + 1 < cols:
                topo.add_link(Link(f"l{link_idx}",
                                   (here, f"n{r * cols + c + 1}"),
                                   bandwidth, propagation))
                link_idx += 1
            if r + 1 < rows:
                topo.add_link(Link(f"l{link_idx}",
                                   (here, f"n{(r + 1) * cols + c}"),
                                   bandwidth, propagation))
                link_idx += 1
    return topo


def full_mesh_topology(n: int, bandwidth: float = DEFAULT_BANDWIDTH,
                       propagation: int = DEFAULT_PROPAGATION,
                       speed: float = 1.0,
                       control_share: float = 0.1) -> Topology:
    """Every pair directly connected (small controller clusters)."""
    if n < 2:
        raise TopologyError("full mesh needs >= 2 nodes")
    topo = Topology(name=f"fullmesh{n}")
    ids = _make_nodes(topo, n, speed, control_share)
    link_idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_link(Link(f"l{link_idx}", (ids[i], ids[j]), bandwidth,
                               propagation))
            link_idx += 1
    return topo


#: Default one-way WAN propagation delay between regions: 5 ms, i.e.
#: 500x the default intra-region delay — the "orders of magnitude"
#: separation that makes WAN latency a useful conservative lookahead.
DEFAULT_WAN_LATENCY = 5000


def geo_topology(regions: int, nodes_per_region: int,
                 wan_latency: int = DEFAULT_WAN_LATENCY,
                 wan_jitter: int = 0,
                 gateways: int = 2,
                 bandwidth: float = DEFAULT_BANDWIDTH,
                 propagation: int = DEFAULT_PROPAGATION,
                 speed: float = 1.0,
                 control_share: float = 0.1) -> Topology:
    """A multi-region deployment: full-mesh regions bridged by WAN links.

    Each region ``r0..r{R-1}`` holds ``nodes_per_region`` nodes
    (``r0n0``, ``r0n1``, …) in a full mesh of fast local links; the
    first ``gateways`` nodes of each region are its WAN gateways, and
    gateway ``g`` of every region pair is joined by a plane-``g`` WAN
    link whose propagation delay is ``wan_latency`` plus a
    deterministic per-link jitter in ``[0, wan_jitter]`` (derived from
    the link id, never from the run RNG, so jitter cannot perturb the
    simulation's random stream). Two gateway planes by default: a
    single gateway would be a single point of partition, and no f >= 1
    strategy can plan around a region that one crash can cut off.

    Every node and intra-region link is tagged with its region; WAN
    links are tagged ``is_wan``. ``wan_latency`` must dominate the
    intra-region ``propagation`` for the deployment to be geo-scale at
    all — the builder enforces a 10x separation floor.

    Region names are zero-padded to a fixed width so that sorted region
    order equals the string-sorted order of their node-id blocks (e.g.
    ``r02n5`` sorts inside region ``r02``'s block).
    """
    if regions < 2:
        raise TopologyError("geo topology needs >= 2 regions")
    if nodes_per_region < 2:
        raise TopologyError("geo topology needs >= 2 nodes per region")
    if wan_jitter < 0:
        raise TopologyError("wan_jitter must be >= 0")
    if not 1 <= gateways <= nodes_per_region:
        raise TopologyError(
            f"gateways ({gateways}) must be in [1, nodes_per_region]"
        )
    if wan_latency < 10 * propagation:
        raise TopologyError(
            f"wan_latency ({wan_latency}) must be >= 10x the intra-region "
            f"propagation ({propagation}); WAN latency must dominate "
            f"local delays"
        )
    topo = Topology(name=f"geo{regions}x{nodes_per_region}")
    width = len(str(regions - 1))
    names = [f"r{j:0{width}d}" for j in range(regions)]
    for region in names:
        ids = [f"{region}n{i}" for i in range(nodes_per_region)]
        for node_id in ids:
            topo.add_node(Node(node_id, speed=speed, clock=LocalClock(),
                               control_share=control_share,
                               region=region))
        link_idx = 0
        for i in range(nodes_per_region):
            for j in range(i + 1, nodes_per_region):
                topo.add_link(Link(f"{region}l{link_idx}",
                                   (ids[i], ids[j]), bandwidth,
                                   propagation, region=region))
                link_idx += 1
    for g in range(gateways):
        for a in range(regions):
            for b in range(a + 1, regions):
                link_id = f"wan{g}{names[a]}-{names[b]}"
                jitter = (zlib.crc32(link_id.encode()) % (wan_jitter + 1)
                          if wan_jitter else 0)
                topo.add_link(Link(link_id,
                                   (f"{names[a]}n{g}", f"{names[b]}n{g}"),
                                   bandwidth, wan_latency + jitter,
                                   is_wan=True))
    return topo


def dual_star_topology(n_leaves: int, bandwidth: float = DEFAULT_BANDWIDTH,
                       propagation: int = DEFAULT_PROPAGATION,
                       speed: float = 1.0,
                       control_share: float = 0.1) -> Topology:
    """Two redundant hubs (AFDX-style): every leaf connects to both.

    Hubs are ``sw0`` and ``sw1``; leaves are ``n0..``. Survives the loss of
    either hub.
    """
    if n_leaves < 2:
        raise TopologyError("dual star needs >= 2 leaves")
    topo = Topology(name=f"dualstar{n_leaves}")
    for hub in ("sw0", "sw1"):
        topo.add_node(Node(hub, speed=speed, clock=LocalClock(),
                           control_share=control_share))
    link_idx = 0
    for i in range(n_leaves):
        leaf = f"n{i}"
        topo.add_node(Node(leaf, speed=speed, clock=LocalClock(),
                           control_share=control_share))
        for hub in ("sw0", "sw1"):
            topo.add_link(Link(f"l{link_idx}", (hub, leaf), bandwidth,
                               propagation))
            link_idx += 1
    return topo


#: The topology-spec grammar: ``kind:AxB…`` names a builder and its
#: integer size arguments (``fullmesh:7``, ``mesh:3x3``, ``geo:3x8`` =
#: regions x nodes-per-region); a bare kind means size 7.
_SPEC_BUILDERS: Dict[str, Tuple[Callable[..., Topology], int]] = {
    "fullmesh": (full_mesh_topology, 1),
    "ring": (ring_topology, 1),
    "line": (line_topology, 1),
    "star": (star_topology, 1),
    "bus": (bus_topology, 1),
    "dualstar": (dual_star_topology, 1),
    "mesh": (mesh_topology, 2),
    "geo": (geo_topology, 2),
}


def parse_topology_spec(spec: str
                        ) -> Tuple[Callable[..., Topology], Tuple[int, ...]]:
    """``(builder, sizes)`` for a topology spec, without building it;
    :class:`TopologyError` names an unknown kind or a malformed size."""
    kind, _, arg = spec.partition(":")
    if kind not in _SPEC_BUILDERS:
        raise TopologyError(f"unknown topology {kind!r}; choose from "
                            f"{', '.join(sorted(_SPEC_BUILDERS))}")
    builder, arity = _SPEC_BUILDERS[kind]
    parts = (arg or "7").split("x")
    try:
        sizes = tuple(int(part) for part in parts)
    except ValueError as exc:
        raise TopologyError(f"malformed topology {spec!r}: {exc}") from None
    if len(sizes) != arity:
        raise TopologyError(f"malformed topology {spec!r}: {kind} takes "
                            f"{arity} size(s), got {len(sizes)}")
    return builder, sizes


def topology_from_spec(spec: str,
                       bandwidth: float = DEFAULT_BANDWIDTH) -> Topology:
    """Build the topology a spec names (see :func:`parse_topology_spec`)
    at raw link ``bandwidth``."""
    builder, sizes = parse_topology_spec(spec)
    try:
        return builder(*sizes, bandwidth=bandwidth)
    except TopologyError as exc:
        raise TopologyError(f"malformed topology {spec!r}: {exc}") from None

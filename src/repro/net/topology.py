"""Network topologies for CPS deployments.

A :class:`Topology` bundles the simulator-facing objects — :class:`Node` and
:class:`Link` instances — with their adjacency (``Topology.adjacency``),
which routing and reachability analysis read. Builders cover the shapes
common in the CPS domain the paper targets: a shared bus (CAN-like), ring
(FlexRay-like), star and dual-star (switched avionics backbones à la AFDX),
line, grid mesh, and fully-connected meshes for small controller clusters.

Workload endpoints (sources/sinks — the physical sensors and actuators) are
pinned to nodes through the topology's ``endpoint_map``.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..persist import InputError
from ..sim.clock import LocalClock
from ..sim.link import Link
from ..sim.node import Node
from .routing import Router


class TopologyError(InputError):
    """Raised for malformed topologies, topology specs or endpoint
    placements."""


#: Default raw link bandwidth: 10 Mbps, typical of embedded backbones.
DEFAULT_BANDWIDTH = 10e6
#: Default propagation delay per link.
DEFAULT_PROPAGATION = 10


class Topology:
    """Nodes + links + their adjacency, with workload endpoint placement."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        #: node -> {neighbour: link id}, nodes then neighbours in
        #: insertion order; a pair linked twice keeps the later link id.
        self.adjacency: Dict[str, Dict[str, str]] = {}
        #: Maps workload source/sink names to hosting node ids.
        self.endpoint_map: Dict[str, str] = {}
        #: Region name -> sorted node ids, for region-tagged (geo)
        #: topologies; empty for flat deployments.
        self.regions: Dict[str, List[str]] = {}
        self._router: Optional[Router] = None

    @property
    def router(self) -> Router:
        """The topology's one :class:`Router`, built on first use: every
        planner, verifier and analyzer reading this topology shares its
        hop tables and routes."""
        if self._router is None:
            self._router = Router(self)
        return self._router

    # ------------------------------------------------------------ building

    def add_node(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise TopologyError(f"duplicate node id {node.node_id}")
        self._router = None
        self.nodes[node.node_id] = node
        self.adjacency[node.node_id] = {}
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
        self._router = None
        self.links[link.link_id] = link
        for endpoint in link.endpoints:
            self.nodes[endpoint].attach(link)
        # A multi-access link contributes a clique to the adjacency.
        endpoints = list(link.endpoints)
        for i, a in enumerate(endpoints):
            for b in endpoints[i + 1:]:
                self.adjacency[a][b] = self.adjacency[b][a] = link.link_id
        return link

    def link_between(self, a: str, b: str) -> Link:
        link_id = self.adjacency.get(a, {}).get(b)
        if link_id is None:
            raise TopologyError(f"no link between {a} and {b}")
        return self.links[link_id]

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
    ) -> None:
        """Deterministically pin sources/sinks to dedicated I/O nodes.

        Sensors go to the first node, actuators to the last — mirroring
        CPS deployments where physical I/O is wired to interface nodes,
        and leaving the remaining nodes free to host (and lose)
        computation.
        """
        node_ids = sorted(self.nodes)
        for src in sorted(sources):
            self.nodes[node_ids[0]].is_source = True
            self.place_endpoint(src, node_ids[0])
        for sink in sorted(sinks):
            self.nodes[node_ids[-1]].is_sink = True
            self.place_endpoint(sink, node_ids[-1])

    # ------------------------------------------------------------- queries

    def node_ids(self) -> List[str]:
        return sorted(self.nodes)

    def neighbors(self, node_id: str) -> List[str]:
        return sorted(self.adjacency[node_id])

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Topology({self.name}, {len(self.nodes)} nodes, "
                f"{len(self.links)} links)")


def _make_nodes(topology: Topology, count: int, **node_options
                ) -> List[str]:
    ids = [f"n{i}" for i in range(count)]
    for node_id in ids:
        topology.add_node(Node(node_id, clock=LocalClock(), **node_options))
    return ids


def line_topology(n: int, bandwidth: float = DEFAULT_BANDWIDTH
                  ) -> Topology:
    """n0 — n1 — … — n(k-1)."""
    if n < 2:
        raise TopologyError("line topology needs >= 2 nodes")
    topo = Topology(name=f"line{n}")
    ids = _make_nodes(topo, n)
    for i in range(n - 1):
        topo.add_link(Link(f"l{i}", (ids[i], ids[i + 1]), bandwidth,
                           DEFAULT_PROPAGATION))
    return topo


def ring_topology(n: int, bandwidth: float = DEFAULT_BANDWIDTH) -> Topology:
    """A FlexRay-style ring; survives any single link failure."""
    if n < 3:
        raise TopologyError("ring topology needs >= 3 nodes")
    topo = Topology(name=f"ring{n}")
    ids = _make_nodes(topo, n)
    for i in range(n):
        topo.add_link(Link(f"l{i}", (ids[i], ids[(i + 1) % n]), bandwidth,
                           DEFAULT_PROPAGATION))
    return topo


def star_topology(n_leaves: int, bandwidth: float = DEFAULT_BANDWIDTH
                  ) -> Topology:
    """Leaves around a hub node (the hub is ``n0``)."""
    if n_leaves < 2:
        raise TopologyError("star topology needs >= 2 leaves")
    topo = Topology(name=f"star{n_leaves}")
    ids = _make_nodes(topo, n_leaves + 1)
    hub = ids[0]
    for i, leaf in enumerate(ids[1:]):
        topo.add_link(Link(f"l{i}", (hub, leaf), bandwidth,
                           DEFAULT_PROPAGATION))
    return topo


def bus_topology(n: int, bandwidth: float = DEFAULT_BANDWIDTH) -> Topology:
    """A single shared CAN-style bus connecting all nodes."""
    if n < 2:
        raise TopologyError("bus topology needs >= 2 nodes")
    topo = Topology(name=f"bus{n}")
    ids = _make_nodes(topo, n)
    topo.add_link(Link("bus", tuple(ids), bandwidth, DEFAULT_PROPAGATION))
    return topo


def mesh_topology(rows: int, cols: int, bandwidth: float = DEFAULT_BANDWIDTH
                  ) -> Topology:
    """A rows×cols grid mesh."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError("mesh needs >= 2 nodes")
    topo = Topology(name=f"mesh{rows}x{cols}")
    ids = [f"n{r * cols + c}" for r in range(rows) for c in range(cols)]
    for node_id in ids:
        topo.add_node(Node(node_id, clock=LocalClock()))
    link_idx = 0
    for r in range(rows):
        for c in range(cols):
            here = f"n{r * cols + c}"
            if c + 1 < cols:
                topo.add_link(Link(f"l{link_idx}",
                                   (here, f"n{r * cols + c + 1}"),
                                   bandwidth, DEFAULT_PROPAGATION))
                link_idx += 1
            if r + 1 < rows:
                topo.add_link(Link(f"l{link_idx}",
                                   (here, f"n{(r + 1) * cols + c}"),
                                   bandwidth, DEFAULT_PROPAGATION))
                link_idx += 1
    return topo


def full_mesh_topology(n: int, bandwidth: float = DEFAULT_BANDWIDTH,
                       speed: float = 1.0) -> Topology:
    """Every pair directly connected (small controller clusters)."""
    if n < 2:
        raise TopologyError("full mesh needs >= 2 nodes")
    topo = Topology(name=f"fullmesh{n}")
    ids = _make_nodes(topo, n, speed=speed)
    link_idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_link(Link(f"l{link_idx}", (ids[i], ids[j]), bandwidth,
                               DEFAULT_PROPAGATION))
            link_idx += 1
    return topo


#: Default one-way WAN propagation delay between regions: 5 ms, i.e.
#: 500x the default intra-region delay — the "orders of magnitude"
#: separation that makes WAN latency a useful conservative lookahead.
DEFAULT_WAN_LATENCY = 5000


def geo_topology(regions: int, nodes_per_region: int,
                 bandwidth: float = DEFAULT_BANDWIDTH) -> Topology:
    """A multi-region deployment: full-mesh regions bridged by WAN links.

    Each region ``r0..r{R-1}`` holds ``nodes_per_region`` nodes
    (``r0n0``, ``r0n1``, …) in a full mesh of fast local links; the
    first two nodes of each region are its WAN gateways, and gateway
    ``g`` of every region pair is joined by a plane-``g`` WAN link whose
    propagation delay is :data:`DEFAULT_WAN_LATENCY`. Two gateway
    planes: a single gateway would be a single point of partition, and
    no f >= 1 strategy can plan around a region that one crash can cut
    off.

    Every node and intra-region link is tagged with its region; WAN
    links are tagged ``is_wan``.

    Region names are zero-padded to a fixed width so that sorted region
    order equals the string-sorted order of their node-id blocks (e.g.
    ``r02n5`` sorts inside region ``r02``'s block).
    """
    if regions < 2:
        raise TopologyError("geo topology needs >= 2 regions")
    if nodes_per_region < 2:
        raise TopologyError("geo topology needs >= 2 nodes per region")
    topo = Topology(name=f"geo{regions}x{nodes_per_region}")
    width = len(str(regions - 1))
    names = [f"r{j:0{width}d}" for j in range(regions)]
    for region in names:
        ids = [f"{region}n{i}" for i in range(nodes_per_region)]
        for node_id in ids:
            topo.add_node(Node(node_id, clock=LocalClock(),
                               region=region))
        link_idx = 0
        for i in range(nodes_per_region):
            for j in range(i + 1, nodes_per_region):
                topo.add_link(Link(f"{region}l{link_idx}",
                                   (ids[i], ids[j]), bandwidth,
                                   DEFAULT_PROPAGATION, region=region))
                link_idx += 1
    for g in range(2):
        for a in range(regions):
            for b in range(a + 1, regions):
                topo.add_link(Link(f"wan{g}{names[a]}-{names[b]}",
                                   (f"{names[a]}n{g}", f"{names[b]}n{g}"),
                                   bandwidth, DEFAULT_WAN_LATENCY,
                                   is_wan=True))
    return topo


def dual_star_topology(n_leaves: int, bandwidth: float = DEFAULT_BANDWIDTH
                       ) -> Topology:
    """Two redundant hubs (AFDX-style): every leaf connects to both.

    Hubs are ``sw0`` and ``sw1``; leaves are ``n0..``. Survives the loss of
    either hub.
    """
    if n_leaves < 2:
        raise TopologyError("dual star needs >= 2 leaves")
    topo = Topology(name=f"dualstar{n_leaves}")
    for hub in ("sw0", "sw1"):
        topo.add_node(Node(hub, clock=LocalClock()))
    link_idx = 0
    for i in range(n_leaves):
        leaf = f"n{i}"
        topo.add_node(Node(leaf, clock=LocalClock()))
        for hub in ("sw0", "sw1"):
            topo.add_link(Link(f"l{link_idx}", (hub, leaf), bandwidth,
                               DEFAULT_PROPAGATION))
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
#: Nodes a spec's builder adds beyond the product of its sizes (hubs).
_SPEC_HUBS = {"star": 1, "dualstar": 2}
#: The most nodes a spec may name. The largest deployment planned
#: anywhere here is ``geo:4x40`` (160 nodes: industrial at f=1 plans in
#: 1.2 s, pipeline on ``fullmesh:160`` in 1.7 s, on a 2-core x86 host
#: with Python 3.11); ``fullmesh:400`` was still planning after 20 s.
MAX_TOPOLOGY_NODES = 160


def parse_topology_spec(spec: str
                        ) -> Tuple[Callable[..., Topology], Tuple[int, ...]]:
    """``(builder, sizes)`` for a topology spec, without building it;
    :class:`TopologyError` names an unknown kind, a malformed size or
    more than :data:`MAX_TOPOLOGY_NODES` nodes."""
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
    n_nodes = math.prod(sizes) + _SPEC_HUBS.get(kind, 0)
    if n_nodes > MAX_TOPOLOGY_NODES:
        raise TopologyError(f"topology {spec!r} has {n_nodes} nodes, more "
                            f"than the {MAX_TOPOLOGY_NODES} a deployment "
                            f"may have")
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

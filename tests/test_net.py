"""Tests for topologies and routing."""

import gc
import itertools
import weakref

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro import Deployment
from repro.baselines import BASELINES
from repro.net import (
    DEFAULT_PROPAGATION,
    DEFAULT_WAN_LATENCY,
    Router,
    RoutingError,
    Topology,
    TopologyError,
    bus_topology,
    dual_star_topology,
    full_mesh_topology,
    line_topology,
    mesh_topology,
    ring_topology,
    star_topology,
    topology_from_spec,
)
from repro.net.topology import _SPEC_BUILDERS
from repro.sim import Link, Node


# ----------------------------------------------------------------- topology


def survivors_connected(topo, excluding=frozenset()):
    """Every node outside ``excluding`` routes to every other one."""
    router = Router(topo)
    alive = set(topo.nodes) - excluding
    return all(alive <= set(router.hops_from(src, excluding))
               for src in alive)


@pytest.mark.parametrize("factory,args,n_nodes", [
    (line_topology, (4,), 4),
    (ring_topology, (5,), 5),
    (star_topology, (4,), 5),          # 4 leaves + hub
    (bus_topology, (6,), 6),
    (mesh_topology, (2, 3), 6),
    (full_mesh_topology, (4,), 4),
    (dual_star_topology, (4,), 6),     # 4 leaves + 2 hubs
])
def test_builders_produce_connected_graphs(factory, args, n_nodes):
    topo = factory(*args)
    assert len(topo.nodes) == n_nodes
    assert survivors_connected(topo)


def test_builders_reject_degenerate_sizes():
    with pytest.raises(TopologyError):
        line_topology(1)
    with pytest.raises(TopologyError):
        ring_topology(2)
    with pytest.raises(TopologyError):
        bus_topology(1)


def test_wan_latency_dominates_local_propagation():
    assert DEFAULT_WAN_LATENCY >= 10 * DEFAULT_PROPAGATION


def test_duplicate_node_rejected():
    topo = Topology()
    topo.add_node(Node("a"))
    with pytest.raises(TopologyError):
        topo.add_node(Node("a"))


def test_link_with_unknown_endpoint_rejected():
    topo = Topology()
    topo.add_node(Node("a"))
    with pytest.raises(TopologyError):
        topo.add_link(Link("l", ("a", "ghost"), 1e6))


def test_bus_is_a_clique_in_routing_graph():
    topo = bus_topology(4)
    router = Router(topo)
    assert router.hops_from("n0")["n3"] == 1


def test_ring_survives_single_node_loss():
    topo = ring_topology(6)
    assert survivors_connected(topo, excluding={"n2"})


def test_line_partitions_on_interior_loss():
    topo = line_topology(5)
    assert not survivors_connected(topo, excluding={"n2"})


def test_dual_star_survives_hub_loss():
    topo = dual_star_topology(5)
    assert survivors_connected(topo, excluding={"sw0"})


def test_endpoint_placement():
    topo = line_topology(3)
    topo.place_endpoint("sensor", "n0")
    assert topo.node_of_endpoint("sensor") == "n0"
    with pytest.raises(TopologyError):
        topo.node_of_endpoint("ghost")
    with pytest.raises(TopologyError):
        topo.place_endpoint("x", "ghost")


def test_round_robin_placement_marks_roles():
    topo = line_topology(4)
    topo.place_endpoints_round_robin(["s1", "s2"], ["k1"])
    assert topo.node_of_endpoint("s1") in topo.nodes
    src_node = topo.nodes[topo.node_of_endpoint("s1")]
    assert src_node.is_source
    sink_node = topo.nodes[topo.node_of_endpoint("k1")]
    assert sink_node.is_sink


# ------------------------------------------------------------------ routing


def test_shortest_path_on_line():
    topo = line_topology(5)
    router = Router(topo)
    assert router.route("n0", "n4") == ["n0", "n1", "n2", "n3", "n4"]
    assert router.hops_from("n0")["n4"] == 4


def test_route_to_self():
    topo = line_topology(3)
    router = Router(topo)
    assert router.route("n1", "n1") == ["n1"]


def test_route_avoids_excluded_nodes():
    topo = ring_topology(6)
    router = Router(topo)
    direct = router.route("n0", "n2")
    assert direct == ["n0", "n1", "n2"]
    detour = router.route("n0", "n2", excluding={"n1"})
    assert "n1" not in detour
    assert detour[0] == "n0" and detour[-1] == "n2"


def test_route_raises_when_partitioned():
    topo = line_topology(5)
    router = Router(topo)
    with pytest.raises(RoutingError):
        router.route("n0", "n4", excluding={"n2"})


def test_route_unknown_endpoint_raises():
    topo = line_topology(3)
    router = Router(topo)
    with pytest.raises(RoutingError):
        router.route("n0", "ghost")


def test_route_cache_and_invalidate():
    topo = line_topology(4)
    router = Router(topo)
    first = router.route("n0", "n3")
    assert router.route("n0", "n3") is first  # cached object


def test_topology_holds_one_router_until_it_grows():
    topo = line_topology(3)
    router = topo.router
    assert topo.router is router
    assert router.diameter() == 2
    assert router.diameter() is router.diameter()  # kept per excluded set
    topo.add_node(Node("n3"))
    topo.add_link(Link("l9", ("n2", "n3"), 1e6))
    assert topo.router is not router
    assert topo.router.diameter() == 3


def test_router_holds_no_reference_to_its_topology():
    """The topology holds its router, so the router must not hold the
    topology: dropping the topology frees both by reference counting."""
    topo = ring_topology(5)
    topo.router.diameter(frozenset({"n1"}))
    assert topo not in gc.get_referents(topo.router)
    gc.collect()
    gc.disable()
    try:
        freed = weakref.ref(topo)
        router = weakref.ref(topo.router)
        del topo
        assert freed() is None and router() is None
    finally:
        gc.enable()


def test_planner_verifier_and_analyzer_share_the_topology_router():
    system = Deployment("industrial", "fullmesh:5").system()
    topology = system.topology
    router = topology.router
    system.prepare(strict=True)
    assert topology.router is router
    # The budget and the analyzer asked the same router for diameters.
    assert frozenset() in router._diameters
    assert len(router._diameters) > 1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=3, max_value=12))
def test_property_full_mesh_routes_are_single_hop(n):
    topo = full_mesh_topology(n)
    router = Router(topo)
    assert router.hops_from("n0")[f"n{n - 1}"] == 1


def oracle_graph(topo):
    """The routing graph ``Topology`` kept before it kept an adjacency
    map: nodes in insertion order, then each link, in order, as a clique.
    (Walking ``topo.adjacency`` instead would order neighbours
    differently.) The reference stays here, not in ``src/``."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.nodes)
    for link in topo.links.values():
        graph.add_edges_from(itertools.combinations(link.endpoints, 2),
                             link_id=link.link_id)
    return graph


def oracle_route(graph, src, dst, excluding):
    """``Router.route`` as it was when it ran networkx on the subgraph
    view, every time."""
    if excluding:
        keep = [n for n in graph.nodes
                if n not in excluding or n in (src, dst)]
        graph = graph.subgraph(keep)
    if src not in graph or dst not in graph:
        raise RoutingError(f"unknown endpoint: {src} or {dst}")
    try:
        return nx.shortest_path(graph, src, dst)
    except nx.NetworkXNoPath:
        raise RoutingError(
            f"no route {src} -> {dst} excluding {sorted(excluding or ())}"
        ) from None


def oracle_diameter(graph, excluding):
    """``nx.diameter`` of the survivors, ``None`` when they are cut off
    from each other."""
    survivors = graph.subgraph(n for n in graph if n not in excluding)
    return nx.diameter(survivors) if nx.is_connected(survivors) else None


def outcome(query, *args):
    try:
        return query(*args)
    except RoutingError as exc:
        return str(exc)


NODE_IDS = [f"n{i}" for i in range(7)]
PAIRS = list(itertools.combinations(NODE_IDS, 2))


@st.composite
def topologies(draw):
    """Nodes added in any order; point-to-point links in any order, each
    with its endpoints either way round; maybe one 3-endpoint bus, which
    may link a pair a point-to-point link already links."""
    topo = Topology()
    for node_id in draw(st.permutations(NODE_IDS)):
        topo.add_node(Node(node_id))
    links = [pair[::-1] if flip else pair for pair, flip in draw(
        st.lists(st.tuples(st.sampled_from(PAIRS), st.booleans()),
                 unique_by=lambda edge: edge[0], max_size=len(PAIRS)))]
    bus = draw(st.none() | st.permutations(NODE_IDS).map(
        lambda ids: tuple(ids[:3])))
    if bus is not None:
        links.insert(draw(st.integers(0, len(links))), bus)
    for i, endpoints in enumerate(links):
        topo.add_link(Link(f"l{i}", endpoints, 1e6))
    return topo


@settings(max_examples=40, deadline=None)
@given(topo=topologies(),
       excluded_sets=st.lists(st.sets(st.sampled_from(NODE_IDS),
                                      max_size=4), min_size=1, max_size=3),
       as_frozenset=st.booleans())
def test_property_router_equals_networkx_oracle(topo, excluded_sets,
                                                as_frozenset):
    """Connected or partitioned graph, any excluded set (endpoints
    included), every endpoint pair plus an unknown node: same path (and
    its length in the source's hop table), or the same ``RoutingError``
    message — on one router, so later answers come out of what earlier
    ones remembered. The adjacency is the oracle graph's, neighbour
    order and link ids included."""
    graph = oracle_graph(topo)
    assert ([(n, list(nbrs.items())) for n, nbrs in topo.adjacency.items()]
            == [(n, [(m, data["link_id"]) for m, data in nbrs.items()])
                for n, nbrs in graph.adjacency()])
    router = Router(topo)
    endpoints = NODE_IDS + ["ghost"]
    for excluded in excluded_sets + [set()]:
        excluding = frozenset(excluded) if as_frozenset else excluded
        for src, dst in itertools.product(endpoints, repeat=2):
            expected = outcome(oracle_route, graph, src, dst, excluded)
            assert outcome(router.route, src, dst, excluding) == expected
            if src == "ghost":
                continue
            hops = router.hops_from(src, excluding)
            if isinstance(expected, list):
                assert hops[dst] == len(expected) - 1
            else:
                assert dst not in hops


@settings(max_examples=40, deadline=None)
@given(topo=topologies(),
       excluded_sets=st.lists(st.sets(st.sampled_from(NODE_IDS),
                                      max_size=6), min_size=1, max_size=4))
def test_property_diameter_equals_networkx(topo, excluded_sets):
    """Any survivors (at least one): the greatest hop count between two
    of them, or ``None`` exactly when they are cut off from each other."""
    graph = oracle_graph(topo)
    router = Router(topo)
    for excluded in excluded_sets + [set()]:
        assert router.diameter(excluded) == oracle_diameter(graph, excluded)


@pytest.mark.parametrize("kind", sorted(_SPEC_BUILDERS))
def test_diameter_equals_networkx_on_every_spec_shape(kind):
    """Every builder, with no node, any one node or any two nodes
    excluded."""
    topo = topology_from_spec(
        f"{kind}:{'x'.join(['3'] * _SPEC_BUILDERS[kind][1])}")
    graph = oracle_graph(topo)
    router = Router(topo)
    for size in (0, 1, 2):
        for excluded in itertools.combinations(topo.nodes, size):
            assert (router.diameter(excluded)
                    == oracle_diameter(graph, excluded))

"""Tests for the offline planner: augmentation, placement, plans, strategy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import (
    AugmentConfig,
    PlacementConfig,
    PlacementError,
    PlanningError,
    Strategy,
    augment,
    build_plan,
    build_strategy,
    naming,
    place,
    plan_distance,
)
from repro.crypto import Signature
from repro.net import full_mesh_topology, line_topology, ring_topology
from repro.sim import ms
from repro.workload import (
    Criticality,
    avionics_workload,
    industrial_workload,
    pipeline_workload,
)


def deployed(workload, topo):
    topo.place_endpoints_round_robin(workload.sources, workload.sinks)


# ------------------------------------------------------------------- naming


def test_naming_roundtrip():
    assert naming.base_task(naming.replica_name("ctrl", 2)) == "ctrl"
    assert naming.base_task(naming.checker_name("ctrl")) == "ctrl"
    assert naming.base_task("plain") == "plain"
    assert naming.replica_index("t#r3") == 3
    assert naming.replica_index("t#c") is None
    assert naming.is_checker("t#c") and not naming.is_checker("t#r0")
    assert naming.base_flow("f@r1") == "f"
    assert naming.base_flow("f") == "f"


# ------------------------------------------------------------ augmentation


def test_augment_creates_replicas_and_checkers():
    wl = pipeline_workload(n_stages=2)
    aug = augment(wl, AugmentConfig(replicas=2))
    assert naming.replica_name("pipeline.t0", 0) in aug.tasks
    assert naming.replica_name("pipeline.t0", 1) in aug.tasks
    assert naming.checker_name("pipeline.t0") in aug.tasks
    assert len(aug.tasks) == 2 * 3  # (2 replicas + 1 checker) per task
    aug.validate()


def test_augment_flow_fanout():
    wl = pipeline_workload(n_stages=2)
    aug = augment(wl, AugmentConfig(replicas=2))
    # Internal flow f0: copies to r0, r1, checker of t1 (from t0's checker)
    # plus two audit copies (from t0's replicas to t1's checker).
    copies = [f for f in aug.flows if naming.base_flow(f.name) == "pipeline.f0"]
    assert len(copies) == 5
    from_checker = [f for f in copies
                    if f.src == naming.checker_name("pipeline.t0")]
    audits = [f for f in copies if "@a" in f.name]
    assert len(from_checker) == 3
    assert len(audits) == 2
    assert all(f.dst == naming.checker_name("pipeline.t1") for f in audits)
    assert all(naming.replica_index(f.src) is not None for f in audits)
    # Sink flow: one @out copy from the checker plus one audit copy per
    # replica (so the sink host can audit actuator commands).
    outs = [f for f in aug.flows if naming.base_flow(f.name) == "pipeline.out"]
    assert len(outs) == 3
    command = next(f for f in outs if f.name.endswith("@out"))
    assert command.src == naming.checker_name("pipeline.t1")
    assert command.deadline == wl.flow("pipeline.out").deadline
    sink_audits = [f for f in outs if "@a" in f.name]
    assert len(sink_audits) == 2
    assert all(naming.replica_index(f.src) is not None
               for f in sink_audits)


def test_augment_signs_flows():
    wl = pipeline_workload(n_stages=1)
    aug = augment(wl, AugmentConfig(replicas=2))
    original = wl.flow("pipeline.in").size_bits
    copy = next(f for f in aug.flows
                if naming.base_flow(f.name) == "pipeline.in")
    assert copy.size_bits == original + Signature.WIRE_BITS


def test_augment_preserves_criticality_and_state():
    wl = avionics_workload()
    aug = augment(wl, AugmentConfig(replicas=2))
    replica = aug.tasks[naming.replica_name("ctrl_law", 1)]
    assert replica.criticality == Criticality.A
    assert replica.state_bits == wl.tasks["ctrl_law"].state_bits
    checker = aug.tasks[naming.checker_name("ctrl_law")]
    assert checker.criticality == Criticality.A
    assert checker.state_bits == 0


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(replicas=0)


# -------------------------------------------------------------- placement


def test_replica_anti_affinity():
    wl = pipeline_workload(n_stages=2)
    topo = full_mesh_topology(4, bandwidth=1e7)
    deployed(wl, topo)
    aug = augment(wl, AugmentConfig(replicas=2))
    assignment = place(aug, topo, excluding=set())
    for base in wl.tasks:
        nodes = {assignment[i] for i in aug.tasks
                 if naming.base_task(i) == base}
        members = [i for i in aug.tasks if naming.base_task(i) == base]
        assert len(nodes) == len(members)  # pairwise distinct


def test_placement_avoids_excluded_nodes():
    wl = pipeline_workload(n_stages=2)
    topo = full_mesh_topology(5, bandwidth=1e7)
    deployed(wl, topo)
    aug = augment(wl, AugmentConfig(replicas=2))
    assignment = place(aug, topo, excluding={"n0", "n1"})
    assert not {"n0", "n1"} & set(assignment.values())


def test_placement_fails_when_too_few_nodes():
    wl = pipeline_workload(n_stages=1)
    topo = line_topology(2, bandwidth=1e7)
    deployed(wl, topo)
    aug = augment(wl, AugmentConfig(replicas=3))  # 4 instances, 2 nodes
    with pytest.raises(PlacementError):
        place(aug, topo, excluding=set())


def test_placement_is_deterministic():
    wl = avionics_workload()
    topo = full_mesh_topology(6, bandwidth=1e8)
    deployed(wl, topo)
    aug = augment(wl, AugmentConfig(replicas=2))
    a1 = place(aug, topo, excluding=set())
    a2 = place(aug, topo, excluding=set())
    assert a1 == a2


def test_distance_weight_keeps_instances_in_place():
    wl = pipeline_workload(n_stages=2)
    topo = full_mesh_topology(8, bandwidth=1e7)
    deployed(wl, topo)
    aug = augment(wl, AugmentConfig(replicas=2))
    parent = place(aug, topo, excluding=set())
    # Exclude a node that hosts nothing; child should match parent exactly.
    unused = next(n for n in topo.node_ids()
                  if n not in set(parent.values()))
    child = place(aug, topo, excluding={unused},
                  parent_assignment=parent)
    assert child == parent


# --------------------------------------------------------------------- plan


def test_build_plan_nominal_industrial():
    wl = industrial_workload()
    for n_nodes in (6, 10):
        topo = full_mesh_topology(n_nodes, bandwidth=1e8)
        deployed(wl, topo)
        plan = build_plan(wl, frozenset(), topo, f=1)
        assert plan.mode == "nominal"
        assert plan.schedule.feasible
        assert plan.kept_levels == set(Criticality.ordered())
        assert len(plan.workload.tasks) == len(wl.tasks)  # nothing shed


def test_build_plan_sheds_under_pressure():
    # 3 eligible nodes, f=1: fault mode leaves 2 nodes for 3x tasks of a
    # heavy workload -> the low-criticality rungs must go.
    wl = avionics_workload(period=ms(20))
    topo = full_mesh_topology(4, bandwidth=1e8, speed=1.0)
    deployed(wl, topo)
    nominal = build_plan(wl, frozenset(), topo, f=1)
    # Find a pattern that forces shedding (may not always shed, but the
    # plan must still be feasible).
    candidates = [n for n in topo.node_ids()
                  if n not in set(topo.endpoint_map.values())]
    faulty = build_plan(wl, frozenset(candidates[:1]), topo, f=1,
                        parent_assignment=nominal.assignment)
    assert faulty.schedule.feasible
    assert faulty.kept_levels <= nominal.kept_levels


def test_build_plan_raises_when_hopeless():
    wl = pipeline_workload(n_stages=2, period=ms(1), wcet=ms(2))
    topo = full_mesh_topology(4, bandwidth=1e8)
    deployed(wl, topo)
    with pytest.raises(PlanningError):
        build_plan(wl, frozenset(), topo, f=1)


def test_plan_routes_and_instances():
    wl = pipeline_workload(n_stages=2)
    topo = full_mesh_topology(4, bandwidth=1e7)
    deployed(wl, topo)
    plan = build_plan(wl, frozenset(), topo, f=1)
    hosted = [plan.instances_on(n) for n in topo.node_ids()]
    assert sum(len(h) for h in hosted) == len(plan.augmented.tasks)
    for flow in plan.augmented.flows:
        route = plan.routes.get(flow.name)
        assert route, f"flow {flow.name} has no route"
        # Route endpoints match the assignment / endpoint map.
        src_node = plan.assignment.get(flow.src,
                                       topo.endpoint_map.get(flow.src))
        assert route[0] == src_node


def test_plan_next_hop():
    wl = pipeline_workload(n_stages=1)
    topo = line_topology(3, bandwidth=1e7)
    topo.place_endpoint("pipeline.sensor", "n0")
    topo.place_endpoint("pipeline.actuator", "n2")
    plan = build_plan(wl, frozenset(), topo, f=1)
    for flow_name, route in plan.routes.items():
        if len(route) >= 2:
            assert plan.next_hop(flow_name, route[0]) == route[1]
            assert plan.next_hop(flow_name, route[-1]) is None


# ----------------------------------------------------------------- strategy


@pytest.fixture(scope="module")
def small_strategy():
    wl = pipeline_workload(n_stages=2, period=ms(50))
    topo = full_mesh_topology(6, bandwidth=1e8)
    topo.place_endpoints_round_robin(wl.sources, wl.sinks)
    return wl, topo, build_strategy(wl, topo, f=1)


def test_strategy_covers_all_patterns(small_strategy):
    wl, topo, strategy = small_strategy
    protected = set(topo.endpoint_map.values())
    eligible = [n for n in topo.node_ids() if n not in protected]
    assert len(strategy) == 1 + len(eligible)
    for node in eligible:
        assert strategy.has_plan(frozenset({node}))


def test_strategy_plans_avoid_their_faulty_nodes(small_strategy):
    _, _, strategy = small_strategy
    for pattern in strategy.patterns():
        plan = strategy.plan_for(pattern)
        assert not set(plan.assignment.values()) & set(pattern)


def test_strategy_lookup_fallbacks(small_strategy):
    _, topo, strategy = small_strategy
    nominal = strategy.plan_for([])
    assert nominal.mode == "nominal"
    # Unknown (protected) node degrades to nominal.
    protected = sorted(set(topo.endpoint_map.values()))[0]
    assert strategy.plan_for([protected]) is nominal
    # Oversized fault set trims deterministically to f nodes.
    eligible = sorted(strategy.covered_nodes)
    plan = strategy.plan_for(eligible[:3])
    assert plan.pattern == frozenset(eligible[:1])


def test_strategy_minimizes_distance():
    wl = pipeline_workload(n_stages=2, period=ms(50))
    topo = full_mesh_topology(6, bandwidth=1e8)
    topo.place_endpoints_round_robin(wl.sources, wl.sinks)
    near = build_strategy(wl, topo, f=1,
                          config=PlacementConfig(minimize_distance=True))
    far = build_strategy(wl, topo, f=1,
                         config=PlacementConfig(minimize_distance=False))

    def total_bits(strategy):
        total = 0
        for child in strategy.patterns():
            if not child:
                continue
            parent = child - {sorted(child)[-1]}
            total += strategy.transition_distance(parent, child).state_bits
        return total

    assert total_bits(near) <= total_bits(far)


def test_plan_distance_accounting():
    parent = {"a#r0": "n0", "a#r1": "n1", "a#c": "n2"}
    child = {"a#r0": "n3", "a#r1": "n1", "a#c": "n2", "b#r0": "n1"}
    wl = pipeline_workload(n_stages=1)
    aug = augment(wl, AugmentConfig(replicas=2))
    d = plan_distance(parent, child, aug)
    assert d.moved_instances == 1
    assert d.new_instances == 1
    assert d.removed_instances == 0


def test_build_strategy_rejects_negative_f():
    wl = pipeline_workload()
    topo = full_mesh_topology(4)
    deployed(wl, topo)
    with pytest.raises(ValueError):
        build_strategy(wl, topo, f=-1)


#: Plans industrial on fullmesh:4 at f = 10**30 in a child process and
#: prints how long ``build_strategy`` took to refuse.
_HUGE_F = """
import time
from repro import Deployment
from repro.core.planner import PlanningError, build_strategy
system = Deployment(topology="fullmesh:4").system()
start = time.perf_counter()
try:
    build_strategy(system.workload, system.topology, f=10**30)
except PlanningError as exc:
    print(time.perf_counter() - start, exc)
"""


def test_build_strategy_refuses_a_budget_beyond_the_nodes_at_once():
    """f + 1 replicas and a checker need f + 2 nodes: a larger f is
    refused before an augmentation of f + 1 replicas is built. The child
    runs under a memory cap and a timeout, so a regression fails here
    instead of hanging (or exhausting) the host."""
    import os
    import resource
    import subprocess
    import sys

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", _HUGE_F],
                         env=dict(os.environ, PYTHONPATH=src),
                         preexec_fn=cap_memory, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    seconds, message = out.stdout.split(" ", 1)
    assert float(seconds) < 1
    assert "needs 1000000000000000000000000000002 nodes" in message
    assert "the topology has 4" in message


def test_node_exposure_metric():
    from repro.core.planner import node_exposure
    from repro.sim import Link, LocalClock, Node
    from repro.net import Topology

    topo = Topology()
    for node_id in ("a", "b", "c"):
        topo.add_node(Node(node_id, clock=LocalClock()))
    topo.add_link(Link("fat", ("a", "b"), 1e8))
    topo.add_link(Link("thin", ("a", "c"), 1e7))
    topo.add_link(Link("bc", ("b", "c"), 1e8))
    assert node_exposure(topo, "a") == pytest.approx(10.0)
    assert node_exposure(topo, "b") == pytest.approx(1.0)
    # Single-homed node: effectively stranded if its neighbour fails.
    topo.add_node(Node("d", clock=LocalClock()))
    topo.add_link(Link("ad", ("a", "d"), 1e8))
    assert node_exposure(topo, "d") == 100.0

"""Cross-module property tests: invariants that must hold for *any*
workload the generators can produce."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import (
    AugmentConfig,
    PlacementError,
    augment,
    naming,
    place,
)
from repro.core.planner.plan import PlanningError, build_plan
from repro.net import full_mesh_topology
from repro.sim import DeterministicRandom, MessageKind, ms
from repro.workload import random_workload

SEEDS = st.integers(min_value=0, max_value=10**6)


def deployed(workload, n_nodes=6, bandwidth=1e8):
    topo = full_mesh_topology(n_nodes, bandwidth=bandwidth)
    topo.place_endpoints_round_robin(workload.sources, workload.sinks)
    return topo


# ------------------------------------------------------------- augmentation


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, replicas=st.integers(min_value=1, max_value=3))
def test_property_augmented_graphs_are_valid_and_complete(seed, replicas):
    workload = random_workload(DeterministicRandom(seed), n_tasks=8,
                               n_layers=2, period=ms(100))
    aug = augment(workload, AugmentConfig(replicas=replicas))
    aug.validate()
    # Exactly replicas+1 instances per original task.
    for task in workload.tasks:
        instances = [i for i in aug.tasks
                     if naming.base_task(i) == task]
        assert len(instances) == replicas + 1
    # Every replica reports to its checker.
    for task in workload.tasks:
        for i in range(replicas):
            assert any(
                f.src == naming.replica_name(task, i)
                and f.dst == naming.checker_name(task)
                for f in aug.flows
            )
    # Every original sink flow survives as exactly one @out command (plus
    # one audit copy per replica), with the original deadline.
    for flow in workload.sink_flows():
        outs = [f for f in aug.flows
                if naming.base_flow(f.name) == flow.name
                and f.dst == flow.dst]
        commands = [f for f in outs if f.name.endswith("@out")]
        assert len(commands) == 1
        assert commands[0].deadline == flow.deadline
        assert len(outs) == 1 + replicas


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_property_augmentation_preserves_total_criticality(seed):
    workload = random_workload(DeterministicRandom(seed), n_tasks=6,
                               n_layers=2, period=ms(100))
    aug = augment(workload, AugmentConfig(replicas=2))
    for instance, task in aug.tasks.items():
        base = workload.tasks[naming.base_task(instance)]
        assert task.criticality == base.criticality


# ---------------------------------------------------------------- placement


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_property_placement_always_satisfies_anti_affinity(seed):
    workload = random_workload(DeterministicRandom(seed), n_tasks=6,
                               n_layers=2, period=ms(100))
    aug = augment(workload, AugmentConfig(replicas=2))
    topo = deployed(workload, n_nodes=7)
    try:
        assignment = place(aug, topo, excluding=set())
    except PlacementError:
        return  # legitimately infeasible
    groups = {}
    for instance, node in assignment.items():
        groups.setdefault(naming.base_task(instance), []).append(node)
    for base, nodes in groups.items():
        assert len(nodes) == len(set(nodes)), f"{base} collides"


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS,
       excluded=st.sets(st.sampled_from(["n1", "n2", "n3"]), max_size=2))
def test_property_placement_respects_exclusions(seed, excluded):
    workload = random_workload(DeterministicRandom(seed), n_tasks=5,
                               n_layers=2, period=ms(100))
    aug = augment(workload, AugmentConfig(replicas=2))
    topo = deployed(workload, n_nodes=7)
    try:
        assignment = place(aug, topo, excluding=set(excluded))
    except PlacementError:
        return
    assert not set(assignment.values()) & set(excluded)


# -------------------------------------------------------------------- plans


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_property_feasible_plans_meet_their_own_timetable(seed):
    workload = random_workload(DeterministicRandom(seed), n_tasks=6,
                               n_layers=2, period=ms(100))
    topo = deployed(workload, n_nodes=7)
    try:
        plan = build_plan(workload, frozenset(), topo, f=1)
    except PlanningError:
        return
    schedule = plan.schedule
    assert schedule.feasible
    # Tables never overlap and never overrun the period (NodeSchedule
    # enforces this, but the property pins it for synthesized output).
    for node_schedule in schedule.node_schedules.values():
        entries = sorted(node_schedule, key=lambda e: e.start)
        for a, b in zip(entries, entries[1:]):
            assert a.finish <= b.start
        if entries:
            assert entries[-1].finish <= workload.period
    # Per-lane transmissions are serialized.
    lanes = {}
    for t in schedule.transmissions:
        lanes.setdefault((t.link_id, t.sender), []).append(t)
    for txs in lanes.values():
        txs.sort(key=lambda t: t.start)
        for a, b in zip(txs, txs[1:]):
            # a's serialization must end before b's starts (arrival
            # includes propagation, so compare conservatively).
            link_prop = a.arrival - a.start  # serialization + propagation
            assert b.start >= a.start + 1
    # Every consumer's inputs arrive no later than its slot start.
    for instance in plan.augmented.tasks:
        slot = schedule.slot_for(instance)
        if slot is None:
            continue
        for flow in plan.augmented.inputs_of(instance):
            assert schedule.arrivals[flow.name] <= slot.start, (
                f"{flow.name} arrives after {instance}'s slot"
            )


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_property_plan_routes_avoid_the_fault_pattern(seed):
    workload = random_workload(DeterministicRandom(seed), n_tasks=5,
                               n_layers=2, period=ms(100))
    topo = deployed(workload, n_nodes=7)
    pattern = frozenset({"n2"})
    try:
        plan = build_plan(workload, pattern, topo, f=1)
    except PlanningError:
        return
    for route in plan.routes.values():
        assert not set(route) & pattern


# ----------------------------------------------------------- end-to-end BTR


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_random_workload_runs_recover(seed):
    """Any schedulable random workload recovers from a commission fault."""
    from repro import BTRConfig, BTRSystem
    from repro.analysis import btr_verdict
    from repro.faults import single_fault

    workload = random_workload(DeterministicRandom(seed), n_tasks=6,
                               n_layers=2, period=ms(100))
    topo = full_mesh_topology(7, bandwidth=1e8)
    system = BTRSystem(workload, topo, BTRConfig(f=1, seed=seed))
    try:
        budget = system.prepare()
    except (PlanningError, PlacementError):
        return
    if not system.compromisable_nodes():
        return
    result = system.run(
        24, single_fault(system, "commission", at=250_000).script)
    verdict = btr_verdict(result, R_us=budget.total_us)
    assert verdict.holds, [
        (v.flow, v.period_index, v.status) for v in verdict.violations[:5]]

"""The node program's tables equal what they replace.

``core/runtime/program.py`` compiles, once per (plan, node), what the
agent used to derive per event. Each table is checked here against the
derivation it stands for, written against the public ``Plan`` / ``naming``
API only — over every plan of the multi-hop planner cells (whose routes
have intermediate hops and tie-breaks) and an f = 2 full mesh.
"""

import pytest

from repro.core.detector.timing import DEFAULT_TIMING
from repro.core.evidence import input_digest
from repro.core.planner import naming
from repro.core.runtime.program import node_program
from repro.faults.behaviors import CommissionFault
from repro.workload import compute_output
from repro.workload.task import _output_of
from tests import golden

CELLS = ("industrial@dualstar:5/f2", "industrial@mesh:3x3/f1",
         "pipeline@fullmesh:6/f2")


@pytest.fixture(scope="module", params=CELLS)
def deployment(request):
    system = golden.planner_system(request.param)
    strategy = system.strategy
    return system, [strategy.plan_for(p) for p in strategy.patterns()]


def programs(system, plan):
    replicas = system.config.f + 1
    return {node: node_program(plan, node, system.topology.endpoint_map,
                               replicas)
            for node in sorted(system.topology.nodes)}


def final_consumer(system, plan, flow):
    if flow.dst in plan.augmented.tasks:
        return plan.assignment.get(flow.dst)
    return system.topology.endpoint_map.get(flow.dst)


def scanned_send_offset(plan, flow_name):
    """The handoff of a logical flow or copy, by scanning the flows."""
    for flow in plan.augmented.flows:
        if flow.name == flow_name or naming.base_flow(flow.name) == flow_name:
            if flow.src not in plan.augmented.tasks:
                return 0
            slot = plan.schedule.slot_for(flow.src)
            return slot.finish if slot is not None else None
    return None


def test_programs_are_built_once_and_held_by_their_plan(deployment):
    system, plans = deployment
    for plan in plans:
        first = programs(system, plan)
        assert programs(system, plan) == first
        assert all(plan.programs[node] is program
                   for node, program in first.items())


def test_next_hops_equal_plan_next_hop(deployment):
    system, plans = deployment
    multi_hop = 0
    for plan in plans:
        for node, program in programs(system, plan).items():
            for flow in plan.augmented.flows:
                assert (program.next_hop.get(flow.name)
                        == plan.next_hop(flow.name, node))
            multi_hop += sum(len(plan.routes[c]) > 2
                             for c in program.next_hop)
    if "fullmesh" not in system.topology.name:
        assert multi_hop, "the cell was chosen for its intermediate hops"


def test_send_offsets_and_windows_equal_the_scan(deployment):
    system, plans = deployment
    policy = DEFAULT_TIMING
    slack, arrival_slack = policy.slack_us, policy.arrival_slack_us
    for plan in plans:
        names = {f.name for f in plan.augmented.flows}
        names |= {naming.base_flow(n) for n in names} | {"ghost", "ghost@c"}
        for name in sorted(names):
            planned = scanned_send_offset(plan, name)
            assert plan.planned_send_offset(name) == planned
            assert policy.send_window(plan, name) == (
                None if planned is None
                else (planned - slack, planned + slack))
            arrival = plan.planned_arrival(name)
            assert policy.arrival_deadline(plan, name) == (
                None if arrival is None else arrival + arrival_slack)


def test_consumed_copies_and_sends_name_the_final_consumer(deployment):
    system, plans = deployment
    for plan in plans:
        by_node = programs(system, plan)
        flows = {f.name: f for f in plan.augmented.flows}
        for flow in plan.augmented.flows:
            final = final_consumer(system, plan, flow)
            holders = [n for n, p in by_node.items()
                       if flow.name in p.consumed]
            assert holders == ([final] if final is not None else [])
        for node, program in by_node.items():
            # Arrival checks: the consumed copies with a planned arrival,
            # in flow order, bucketed by that arrival.
            expected = [(plan.planned_arrival(f.name), f.name)
                        for f in plan.augmented.flows
                        if f.name in program.consumed
                        and plan.planned_arrival(f.name) is not None]
            firsts = []
            for arrival, _ in expected:
                if arrival not in firsts:
                    firsts.append(arrival)
            assert [a for a, _ in program.arrival_groups] == firsts
            for arrival, copies in program.arrival_groups:
                assert list(copies) == [c for a, c in expected
                                        if a == arrival]
            sends = [e.send for e in program.sources]
            for member in program.members.values():
                sends += list(member.outputs)
                sends += [send for _, _, targets in member.forwards
                          for _, send in targets]
            for send in filter(None, sends):
                flow = flows[send.name]
                assert send.final == final_consumer(system, plan, flow)
                assert send.size_bits == flow.size_bits
                assert send.next_hop == plan.next_hop(send.name, node)


def test_members_and_groups_follow_instances_on(deployment):
    system, plans = deployment
    replicas = system.config.f + 1
    for plan in plans:
        for node, program in programs(system, plan).items():
            instances = plan.instances_on(node)
            assert list(program.members) == instances
            slotted = [i for i in instances if plan.schedule.slot_for(i)]
            assert sum(len(g) for _, g in program.exec_groups) \
                == len(slotted)
            for finish, group in program.exec_groups:
                assert list(group) == [
                    i for i in slotted
                    if plan.schedule.slot_for(i).finish == finish]
            for instance, member in program.members.items():
                base = naming.base_task(instance)
                slot = plan.schedule.slot_for(instance)
                assert (member.base, member.is_checker) == (
                    base, naming.is_checker(instance))
                assert (member.duration, member.finish) == (
                    slot.duration, slot.finish)
                inputs = plan.workload.inputs_of(base)
                suffix = ("c" if member.is_checker
                          else f"r{naming.replica_index(instance)}")
                assert list(member.inputs) == [
                    naming.flow_copy_name(f.name, suffix) for f in inputs]
                if not member.is_checker:
                    assert [s.name for s in member.outputs] == [
                        f.name for f in plan.augmented.flows
                        if f.src == instance]
                    continue
                assert list(member.expected) == [
                    naming.replica_name(base, i) for i in range(replicas)]
                assert [flow for flow, _ in member.replica_flows] == [
                    naming.replica_output_flow(base, i)
                    for i in range(replicas)]
                assert [a is not None for a in member.audits] == [
                    f.src in plan.workload.tasks for f in inputs]
                assert [flow for flow, _, _ in member.forwards] == [
                    f.name for f in plan.workload.outputs_of(base)]


def test_sources_follow_augmented_flow_order(deployment):
    system, plans = deployment
    endpoints = system.topology.endpoint_map
    for plan in plans:
        for node, program in programs(system, plan).items():
            assert [(e.source, e.flow, e.send.name)
                    for e in program.sources] == [
                (f.src, naming.base_flow(f.name), f.name)
                for f in plan.augmented.flows
                if f.src in plan.augmented.sources
                and endpoints.get(f.src) == node]


# ------------------------------------------ memoised reference functions


def test_reference_functions_ignore_input_order_and_container():
    values = [7, 3, 2 ** 70, 3]
    for fn in (lambda v: compute_output("t", 4, v), input_digest):
        assert fn(values) == fn(sorted(values)) == fn(tuple(values)) \
            == fn(list(reversed(values)))
    assert compute_output("t", 4, values) != compute_output("t", 5, values)
    assert compute_output("t", 4, values) != compute_output("u", 4, values)
    assert input_digest(values) != input_digest(values[:-1])


def test_a_corrupted_value_never_enters_the_memo():
    """The memo sits below ``behavior.corrupt_value``: it is keyed by the
    honest arguments and holds the honest value, so what a faulty replica
    reports can never be served to a correct one."""
    _output_of.cache_clear()
    honest = compute_output("t", 9, [1, 2])
    corrupted = CommissionFault().corrupt_value("t", 9, honest)
    assert corrupted != honest
    assert compute_output("t", 9, (2, 1)) == honest
    assert _output_of.cache_info().currsize == 1
    assert _output_of.cache_info().maxsize <= 4096

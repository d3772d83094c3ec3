"""Global static schedule synthesis (the planner's scheduling back-end).

Given a dataflow graph (possibly augmented with replicas/checkers), a
task-to-node assignment, and a topology, the synthesizer produces one
period's complete timetable: per-node task slots, per-hop planned message
transmissions, and per-flow arrival times. It is a deterministic HEFT-style
list scheduler:

1. tasks are processed in dependency order, and among simultaneously
   ready tasks the most *urgent* goes first — urgency is the task's
   latest feasible finish time, back-propagated from downstream sink
   deadlines. Plain topological order would let an early-ready,
   long-running low-criticality task occupy a node and blow a control
   chain's deadline (priority inversion); deadline-driven ordering is
   what real table generators do. Ties break by name — deterministic.
   The order depends on the graph alone, so the graph carries it
   (:meth:`DataflowGraph.deadline_driven_order`).
2. a task starts at the max of its inputs' arrival times and its node's
   earliest free time; it runs for ``wcet / fg_speed`` on its node;
3. each output flow is transmitted hop-by-hop along the routed path,
   serializing on each hop's (sender, DATA) lane.

Feasibility: every task must finish within the period, every sink flow must
arrive by its deadline. Violations are collected, not raised — the planner's
shedding loop reacts to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..net.routing import Router, RoutingError
from ..net.topology import Topology
from ..sim.message import MessageKind
from ..workload.dataflow import DataflowGraph, Flow
from .lanes import LaneModel
from .table import NodeSchedule, PlannedTransmission, ScheduleEntry


class AssignmentError(Exception):
    """Raised when the task-to-node assignment is malformed."""


@dataclass
class GlobalSchedule:
    """One period's full timetable plus feasibility verdict."""

    period: int
    assignment: Dict[str, str]
    node_schedules: Dict[str, NodeSchedule]
    transmissions: List[PlannedTransmission]
    #: Arrival time of each flow at its consumer (task node or sink node).
    arrivals: Dict[str, int]
    violations: List[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations

    def slot_for(self, task: str) -> Optional[ScheduleEntry]:
        node = self.assignment.get(task)
        if node is None:
            return None
        return self.node_schedules[node].slot_for(task)

    def final_hop(self, flow: str) -> Optional[PlannedTransmission]:
        """The last planned hop of ``flow`` (None for node-local flows)."""
        hops = [t for t in self.transmissions if t.flow == flow]
        return hops[-1] if hops else None

    def makespan(self) -> int:
        ends = [s.busy_until()
                for _, s in sorted(self.node_schedules.items())]
        ends += [t.arrival for t in self.transmissions]
        return max(ends, default=0)

    def total_bits(self) -> int:
        """Bits scheduled on links per period (network cost metric)."""
        return sum(t.size_bits for t in self.transmissions)

    def utilization_by_node(self) -> Dict[str, float]:
        return {n: s.utilization()
                for n, s in sorted(self.node_schedules.items())}


def _effective_fg_speed(topology: Topology, node_id: str) -> float:
    node = topology.nodes[node_id]
    return node.lanes["fg"].speed


def synthesize(
    workload: DataflowGraph,
    assignment: Dict[str, str],
    topology: Topology,
    router: Router,
    lane_model: Optional[LaneModel] = None,
    excluding: Optional[Set[str]] = None,
    flow_sizes: Optional[Dict[str, int]] = None,
) -> GlobalSchedule:
    """Build one period's global schedule. See module docstring.

    Parameters
    ----------
    excluding:
        Nodes considered faulty in this mode; routes avoid them, and the
        assignment must not use them.
    flow_sizes:
        Optional per-flow wire-size overrides (the planner enlarges flows
        that carry signatures).
    """
    lane_model = lane_model or LaneModel(topology)
    excluding = excluding or set()
    flow_sizes = flow_sizes or {}

    for task_name in workload.tasks:
        node = assignment.get(task_name)
        if node is None:
            raise AssignmentError(f"task {task_name} is unassigned")
        if node not in topology.nodes:
            raise AssignmentError(f"task {task_name} assigned to unknown "
                                  f"node {node}")
        if node in excluding:
            raise AssignmentError(
                f"task {task_name} assigned to excluded node {node}"
            )

    violations: List[str] = []
    node_schedules: Dict[str, NodeSchedule] = {
        n: NodeSchedule(n, workload.period)
        for n in topology.nodes if n not in excluding
    }
    transmissions: List[PlannedTransmission] = []
    arrivals: Dict[str, int] = {}
    node_free: Dict[str, int] = {n: 0 for n in node_schedules}
    lane_free: Dict[Tuple[str, str], int] = {}

    def endpoint_node(endpoint: str) -> str:
        if endpoint in assignment:
            return assignment[endpoint]
        return topology.node_of_endpoint(endpoint)

    def schedule_flow(flow: Flow, ready_at: int) -> None:
        """Transmit ``flow`` starting no earlier than ``ready_at``."""
        src_node = endpoint_node(flow.src)
        dst_node = endpoint_node(flow.dst)
        size = flow_sizes.get(flow.name, flow.size_bits)
        if src_node == dst_node:
            arrivals[flow.name] = ready_at
            return
        try:
            path = router.route(src_node, dst_node, excluding)
        except RoutingError as exc:
            violations.append(f"flow {flow.name}: {exc}")
            arrivals[flow.name] = workload.period + 1
            return
        t = ready_at
        for sender, receiver in zip(path[:-1], path[1:]):
            link = topology.link_between(sender, receiver)
            key = (link.link_id, sender)
            tx_start = max(t, lane_free.get(key, 0))
            duration = lane_model.transmission_us(
                link, MessageKind.DATA, size
            )
            lane_free[key] = tx_start + duration
            arrival = tx_start + duration + link.propagation_us
            transmissions.append(PlannedTransmission(
                flow=flow.name, sender=sender, receiver=receiver,
                link_id=link.link_id, start=tx_start, arrival=arrival,
                size_bits=size,
            ))
            t = arrival
        arrivals[flow.name] = t

    # Source readings are available at the hosting node at period start.
    for flow in workload.source_flows():
        schedule_flow(flow, ready_at=0)

    for task_name in workload.deadline_driven_order():
        task = workload.tasks[task_name]
        node = assignment[task_name]
        inputs = workload.inputs_of(task_name)
        ready = max((arrivals[f.name] for f in inputs), default=0)
        start = max(ready, node_free[node])
        speed = _effective_fg_speed(topology, node)
        duration = max(1, int(-(-task.wcet // max(speed, 1e-12))))
        finish = start + duration
        node_free[node] = finish
        if finish > workload.period:
            violations.append(
                f"task {task_name} on {node} finishes at {finish} "
                f"> period {workload.period}"
            )
        else:
            node_schedules[node].add(ScheduleEntry(
                task=task_name, start=start, finish=finish,
            ))
        for flow in workload.outputs_of(task_name):
            schedule_flow(flow, ready_at=finish)

    for flow in workload.sink_flows():
        arrival = arrivals.get(flow.name)
        if arrival is None:
            continue
        if flow.deadline is not None and arrival > flow.deadline:
            violations.append(
                f"sink flow {flow.name} arrives at {arrival} "
                f"> deadline {flow.deadline}"
            )

    for t in transmissions:
        if t.arrival > workload.period:
            violations.append(
                f"transmission of {t.flow} on {t.link_id} arrives at "
                f"{t.arrival} > period {workload.period}"
            )

    return GlobalSchedule(
        period=workload.period,
        assignment=dict(assignment),
        node_schedules=node_schedules,
        transmissions=transmissions,
        arrivals=arrivals,
        violations=violations,
    )

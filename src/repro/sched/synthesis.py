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

from ..net.routing import RoutingError
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

    def makespan(self) -> int:
        ends = [s.busy_until()
                for _, s in sorted(self.node_schedules.items())]
        ends += [t.arrival for t in self.transmissions]
        return max(ends, default=0)

    def total_bits(self) -> int:
        """Bits scheduled on links per period (network cost metric)."""
        return sum(t.size_bits for t in self.transmissions)


def _effective_fg_speed(topology: Topology, node_id: str) -> float:
    node = topology.nodes[node_id]
    return node.lanes["fg"].speed


def synthesize(
    workload: DataflowGraph,
    assignment: Dict[str, str],
    topology: Topology,
    lane_model: Optional[LaneModel] = None,
    excluding: Optional[Set[str]] = None,
) -> GlobalSchedule:
    """Build one period's global schedule. See module docstring.

    Parameters
    ----------
    excluding:
        Nodes considered faulty in this mode; routes avoid them, and the
        assignment must not use them.
    """
    lane_model = lane_model or LaneModel(topology)
    excluding = excluding or set()
    router = topology.router

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
    adjacency = topology.adjacency
    links = topology.links
    transmission_us = lane_model.transmission_us
    data = MessageKind.DATA

    def endpoint_node(endpoint: str) -> str:
        node = assignment.get(endpoint)
        if node is None:
            return topology.node_of_endpoint(endpoint)
        return node

    def schedule_flow(flow: Flow, ready_at: int) -> None:
        """Transmit ``flow`` starting no earlier than ``ready_at``."""
        name = flow.name
        src_node = endpoint_node(flow.src)
        dst_node = endpoint_node(flow.dst)
        if src_node == dst_node:
            arrivals[name] = ready_at
            return
        size = flow.size_bits
        try:
            path = router.route(src_node, dst_node, excluding)
        except RoutingError as exc:
            violations.append(f"flow {name}: {exc}")
            arrivals[name] = workload.period + 1
            return
        t = ready_at
        for sender, receiver in zip(path, path[1:]):
            # A route only crosses linked pairs.
            link_id = adjacency[sender][receiver]
            link = links[link_id]
            key = (link_id, sender)
            free = lane_free.get(key, 0)
            tx_start = t if t >= free else free
            done = tx_start + transmission_us(link, data, size)
            lane_free[key] = done
            t = done + link.propagation_us
            # Positional: a keyword call costs twice as much, thousands
            # of times per strategy.
            transmissions.append(PlannedTransmission(
                name, sender, receiver, link_id, tx_start, t, size))
        arrivals[name] = t

    # Source readings are available at the hosting node at period start.
    for flow in workload.source_flows():
        schedule_flow(flow, ready_at=0)

    for task_name in workload.deadline_driven_order():
        task = workload.tasks[task_name]
        node = assignment[task_name]
        ready = 0
        for flow in workload.inputs_of(task_name):
            arrival = arrivals[flow.name]
            if arrival > ready:
                ready = arrival
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
            node_schedules[node].add(ScheduleEntry(task_name, start, finish))
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

"""Shared machinery for the baseline fault-tolerance systems.

Every baseline runs on exactly the same substrate as BTR — same simulator,
same guarded links crossed through the same hop runtime
(:class:`~repro.perf.batchcore.BatchRuntime`: same lane arithmetic, same
trace rows, same loss draws), same schedule synthesis, same fault
injectors — so the comparisons in the benchmarks are apples-to-apples. A
baseline differs only in its *policy*: how it augments the dataflow graph
(replication degree, voters vs. checkers vs. nothing) and what its agents
do at runtime.

Baselines deliberately treat the workload as a black box (no criticality
shedding, no strategy tree, no evidence) — that contrast is one of the
paper's main arguments for BTR.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..core.planner.placement import PlacementConfig, place
from ..core.runtime.system import RunResult
from ..faults.adversary import Adversary, FaultScript
from ..faults.behaviors import FaultBehavior
from ..net.routing import Router
from ..net.topology import Topology
from ..obs.metrics import MetricsRegistry
from ..perf.batchcore import BatchRuntime
from ..sched.lanes import LaneModel
from ..sched.synthesis import GlobalSchedule, synthesize
from ..sim.engine import Simulator
from ..sim.message import Message, MessageKind
from ..sim.trace import (
    FaultInjected,
    OutputProduced,
    TaskExecuted,
    Trace,
)
from ..workload.dataflow import DataflowGraph, Flow
from ..workload.task import sensor_reading


class BaselinePlan:
    """A single static deployment (no modes): graph, assignment, schedule."""

    def __init__(self, augmented: DataflowGraph, assignment: Dict[str, str],
                 schedule: GlobalSchedule, topology: Topology) -> None:
        self.augmented = augmented
        #: Flow name -> flow of the augmented graph.
        self.flows: Dict[str, Flow] = {f.name: f for f in augmented.flows}
        self.assignment = assignment
        self.schedule = schedule
        self.routes: Dict[str, List[str]] = {}
        for t in schedule.transmissions:
            path = self.routes.setdefault(t.flow, [])
            if not path:
                path.append(t.sender)
            path.append(t.receiver)
        for flow in augmented.flows:
            if flow.name not in self.routes:
                node = assignment.get(flow.src,
                                      topology.endpoint_map.get(flow.src))
                if node is not None:
                    self.routes[flow.name] = [node]

    def instances_on(self, node: str) -> List[str]:
        return sorted(i for i, n in self.assignment.items() if n == node)

    def next_hop(self, flow: str, current: str) -> Optional[str]:
        route = self.routes.get(flow)
        if not route or current not in route:
            return None
        idx = route.index(current)
        return route[idx + 1] if idx + 1 < len(route) else None


class BaselineAgent:
    """Common agent plumbing: dispatch, data plane, sink recording."""

    def __init__(self, system: "BaselineSystem", node) -> None:
        self.system = system
        self.node = node
        self.node_id = node.node_id
        self.behavior: FaultBehavior = FaultBehavior()
        #: (flow, period) -> value (baselines ship raw values, unsigned —
        #: none of them generate transferable evidence).
        self.inbox: Dict[tuple, int] = {}

    @property
    def sim(self) -> Simulator:
        return self.system.sim

    @property
    def plan(self) -> BaselinePlan:
        return self.system.plan

    @property
    def period(self) -> int:
        return self.system.workload.period

    def compromise(self, behavior: FaultBehavior) -> None:
        self.behavior = behavior
        self.node.compromised = True
        behavior.on_activate(self)
        self.system.trace.record(FaultInjected(
            time=self.sim.now, node=self.node_id, fault_kind=behavior.kind,
        ))

    # ---------------------------------------------------------- period tick

    def on_period_start(self, k: int) -> None:
        if self.node.crashed:
            return
        self.emit_sources(k)
        period_start = k * self.period
        for instance in self.plan.instances_on(self.node_id):
            slot = self.plan.schedule.slot_for(instance)
            if slot is None:
                continue
            self.sim.call_at(
                period_start + slot.finish,
                lambda inst=instance, kk=k: self._execute_guarded(inst, kk),
            )

    def _execute_guarded(self, instance: str, k: int) -> None:
        if self.node.crashed:
            return
        slot = self.plan.schedule.slot_for(instance)
        self.system.trace.record(TaskExecuted(
            time=self.sim.now, node=self.node_id, task=instance,
            period_index=k, duration=slot.duration if slot else 0,
        ))
        self.execute_instance(instance, k)

    # --------------------------------------------------- subclass hooks

    def emit_sources(self, k: int) -> None:
        """Send this period's reading of every source hosted here."""
        hosted = {
            s for s, host in self.system.topology.endpoint_map.items()
            if host == self.node_id and s in self.plan.augmented.sources
        }
        if not hosted:
            return
        # Flow order must match the synthesizer's lane serialization.
        for flow in self.plan.augmented.flows:
            if flow.src in hosted:
                self.send_flow(flow.name, k, sensor_reading(flow.src, k))

    def execute_instance(self, instance: str, k: int) -> None:
        raise NotImplementedError

    def on_value(self, flow: str, k: int, value: int, at: int) -> None:
        """Called for every delivered (or local) flow value."""
        self.inbox[(flow, k)] = value

    # ------------------------------------------------------------ messaging

    def send_flow(self, flow_name: str, k: int, value: int) -> None:
        flow = self.plan.flows.get(flow_name)
        if flow is None:
            return
        final = self.system.consumer_node(flow)
        if final is None:
            return
        if self.behavior.drops_message(flow_name, k, final):
            return
        value = self.behavior.corrupt_value(
            flow.src, k, value, receiver=final)
        message = Message(
            src=self.node_id, dst=final, kind=MessageKind.DATA,
            payload=("data", flow_name, k, value), size_bits=flow.size_bits,
            flow=flow_name,
        )
        delay = self.behavior.delay_send(flow_name, k)
        if final == self.node_id:
            self.sim.call_after(max(1, delay),
                                lambda: self._deliver_local(message))
            return
        next_hop = self.plan.next_hop(flow_name, self.node_id)
        if next_hop is None:
            return
        send = self.system.batch_runtime.send
        if delay > 0:
            self.sim.call_after(
                delay, lambda: send(self.node_id, next_hop, message))
        else:
            send(self.node_id, next_hop, message)

    def _deliver_local(self, message: Message) -> None:
        if not self.node.crashed:
            self._on_message(message, self.sim.now)

    def _on_message(self, message: Message, at: int) -> None:
        payload = message.payload
        if not (isinstance(payload, tuple) and payload
                and payload[0] == "data"):
            return
        _, flow_name, k, value = payload
        if message.dst != self.node_id:
            if self.behavior.drops_message(flow_name, k, message.dst):
                return
            next_hop = self.plan.next_hop(flow_name, self.node_id)
            if next_hop is not None:
                self.system.batch_runtime.send(self.node_id, next_hop,
                                               message)
            return
        self.on_value(flow_name, k, value, at)

    def record_output(self, sink: str, flow_base: str, k: int, value: int,
                      at: int) -> None:
        workload = self.system.workload
        flow = workload.flow(flow_base)
        self.system.trace.record(OutputProduced(
            time=at, sink=sink, flow=flow_base, period_index=k, value=value,
            deadline=k * self.period + (flow.deadline or self.period),
            criticality=workload.flow_criticality(flow).value,
        ))


class BaselineSystem:
    """Template for a single-plan fault-tolerance system."""

    name = "baseline"

    def __init__(self, workload: DataflowGraph, topology: Topology,
                 f: int = 1, seed: int = 0) -> None:
        self.workload = workload
        self.topology = topology
        self.f = f
        self.seed = seed
        if not set(workload.sources) <= set(topology.endpoint_map):
            topology.place_endpoints_round_robin(workload.sources,
                                                 workload.sinks)
        self.router = Router(topology)
        self.lane_model = LaneModel(topology)
        self.plan: Optional[BaselinePlan] = None
        #: Where link-loss drops are counted (baselines make no recovery
        #: promise, so their RunResult carries no metrics snapshot).
        self.metrics = MetricsRegistry()
        #: The hop runtime, kept across runs as BTRSystem keeps its own.
        self.batch_runtime = BatchRuntime()
        self.sim: Optional[Simulator] = None
        self.trace: Optional[Trace] = None
        self.agents: Dict[str, BaselineAgent] = {}

    # ------------------------------------------------------ subclass hooks

    def make_augmented(self) -> DataflowGraph:
        raise NotImplementedError

    def make_agent(self, node) -> BaselineAgent:
        raise NotImplementedError

    def on_run_start(self, n_periods: int) -> None:
        """Hook for system-level services (watchdogs, reset timers)."""

    # -------------------------------------------------------------- prepare

    def prepare(self) -> GlobalSchedule:
        augmented = self.make_augmented()
        # Baselines place by load balance alone — the locality heuristic is
        # a BTR planner feature, and with lightly-loaded singleton tasks it
        # would degenerately pile everything next to the sources.
        assignment = place(augmented, self.topology, self.router,
                           excluding=set(),
                           config=PlacementConfig(use_locality=False))
        schedule = synthesize(augmented, assignment, self.topology,
                              self.router, lane_model=self.lane_model)
        if not schedule.feasible:
            raise ValueError(
                f"{self.name}: unschedulable "
                f"({schedule.violations[0]}; {len(schedule.violations)} "
                f"violations total)"
            )
        self.plan = BaselinePlan(augmented, assignment, schedule,
                                 self.topology)
        return schedule

    # ------------------------------------------------------------------ run

    def run(self, n_periods: int,
            adversary: Optional[Union[Adversary, FaultScript]] = None
            ) -> RunResult:
        if self.plan is None:
            raise ValueError(f"{self.name}: call prepare() before run()")
        period = self.workload.period
        self.sim = Simulator(seed=self.seed)
        self.trace = Trace()
        for node in self.topology.nodes.values():
            node.reset()
        for link in self.topology.links.values():
            link.reset()
        self.lane_model.install()
        self.agents = {
            node_id: self.make_agent(node)
            for node_id, node in sorted(self.topology.nodes.items())
        }
        self.batch_runtime.begin_run(self.sim, self.trace, self.topology,
                                     self.metrics, self.agents,
                                     n_periods * period)
        script = self._resolve_script(adversary)
        for injection in script:
            agent = self.agents[injection.node]
            self.sim.call_at(
                injection.time,
                lambda a=agent, b=injection.behavior: a.compromise(b),
            )
        self.on_run_start(n_periods)

        def tick(k: int) -> None:
            for node_id in sorted(self.agents):
                self.agents[node_id].on_period_start(k)
            if k + 1 < n_periods:
                self.sim.call_at((k + 1) * period, lambda: tick(k + 1))

        self.sim.call_at(0, lambda: tick(0))
        self.sim.run_until(n_periods * period)
        self.batch_runtime.end_run()
        return RunResult(
            trace=self.trace,
            config=None,
            workload=self.workload,
            n_periods=n_periods,
            duration_us=n_periods * period,
            budget=None,
            final_modes={n: self.name for n in self.agents},
            final_fault_sets={n: frozenset() for n in self.agents},
        )

    def _resolve_script(self, adversary) -> FaultScript:
        if adversary is None:
            return FaultScript()
        if isinstance(adversary, FaultScript):
            return adversary
        return adversary.script(self.compromisable_nodes(),
                                self.sim.rng.fork("adversary"))

    def compromisable_nodes(self) -> List[str]:
        endpoint_nodes = set(self.topology.endpoint_map.values())
        hosting = set(self.plan.assignment.values())
        return sorted(hosting - endpoint_nodes)

    def consumer_node(self, flow) -> Optional[str]:
        if flow.dst in self.plan.augmented.tasks:
            return self.plan.assignment.get(flow.dst)
        return self.topology.endpoint_map.get(flow.dst)

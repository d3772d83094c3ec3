"""Shared machinery for the baseline fault-tolerance systems.

Every baseline runs on exactly the same substrate as BTR, through the
same run loop (:class:`~repro.core.runtime.system.SimulatedSystem`): same
simulator, same guarded links crossed through the same hop runtime
(:class:`~repro.perf.batchcore.BatchRuntime`: same lane arithmetic, same
trace rows, same loss draws), same schedule synthesis, same fault script
scheduling and period tick — so the comparisons in the benchmarks are
apples-to-apples. A baseline differs only in its *policy*: how it
augments the dataflow graph (:meth:`BaselineSystem.make_augmented`:
replication degree, voters vs. checkers vs. nothing), what its agents do
at runtime (``make_agent``) and which system-level services it runs
(``start_services``: a watchdog, a global reset).

Baselines deliberately treat the workload as a black box (no criticality
shedding, no strategy tree, no evidence) — that contrast is one of the
paper's main arguments for BTR.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..core.planner.placement import PlacementConfig, place
from ..core.planner.plan import Plan, derive_routes
from ..core.runtime.system import RunResult, SimulatedSystem
from ..faults.adversary import FaultScript
from ..faults.behaviors import FaultBehavior
from ..net.topology import Topology
from ..sched.synthesis import GlobalSchedule, synthesize
from ..sim.engine import Simulator
from ..sim.message import Message, MessageKind
from ..sim.trace import (
    FaultInjected,
    OutputProduced,
    TaskExecuted,
    Trace,
)
from ..workload.criticality import Criticality
from ..workload.dataflow import DataflowGraph, Flow
from ..workload.task import sensor_reading


class BaselineAgent:
    """Common agent plumbing: dispatch, data plane, sink recording."""

    def __init__(self, system: "BaselineSystem", node) -> None:
        self.node = node
        self.node_id = node.node_id
        # The collaborators the agent uses, not the system itself: the
        # system holds its agents, so an agent pointing back up would tie
        # every finished run into a reference cycle.
        self.sim: Simulator = system.sim
        self.plan: Plan = system.plan
        #: Source / sink endpoint -> the node it is placed on.
        self.endpoint_map: Dict[str, str] = system.topology.endpoint_map
        self.trace: Trace = system.trace
        self.workload = system.workload
        self.period: int = system.workload.period
        self.f = system.f
        #: The run's hop runtime, whose emission plans hold this agent;
        #: dropped by :meth:`release`.
        self._hops = system.batch_runtime
        self.behavior: FaultBehavior = FaultBehavior()
        #: (flow, period) -> value (baselines ship raw values, unsigned —
        #: none of them generate transferable evidence).
        self.inbox: Dict[tuple, int] = {}

    def release(self) -> None:
        """The run is over: drop the hop runtime, the one pointer that
        leads back to this agent."""
        self._hops = None

    def compromise(self, behavior: FaultBehavior) -> None:
        self.behavior = behavior
        self.node.compromised = True
        behavior.on_activate(self)
        self.trace.record(FaultInjected(
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
            self.sim.call_at(period_start + slot.finish,
                             partial(self._execute_guarded, instance, k))

    def _execute_guarded(self, instance: str, k: int) -> None:
        if self.node.crashed:
            return
        slot = self.plan.schedule.slot_for(instance)
        self.trace.record_row(self.sim.now, (
            TaskExecuted, self.node_id, instance, k,
            slot.duration if slot else 0))
        self.execute_instance(instance, k)

    # --------------------------------------------------- subclass hooks

    def emit_sources(self, k: int) -> None:
        """Send this period's reading of every source hosted here."""
        hosted = {
            s for s, host in sorted(self.endpoint_map.items())
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

    def consumer_node(self, flow: Flow) -> Optional[str]:
        """The node that consumes ``flow``: its task's host, or the node
        its sink endpoint is placed on."""
        if flow.dst in self.plan.augmented.tasks:
            return self.plan.assignment.get(flow.dst)
        return self.endpoint_map.get(flow.dst)

    # ------------------------------------------------------------ messaging

    def send_flow(self, flow_name: str, k: int, value: int) -> None:
        flow = self.plan.augmented.find_flow(flow_name)
        if flow is None:
            return
        final = self.consumer_node(flow)
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
                                partial(self._deliver_local, message))
            return
        next_hop = self.plan.next_hop(flow_name, self.node_id)
        if next_hop is None:
            return
        if delay > 0:
            self.sim.call_after(delay, partial(
                self._hops.send, self.node_id, next_hop, message))
        else:
            self._hops.send(self.node_id, next_hop, message)

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
                self._hops.send(self.node_id, next_hop, message)
            return
        self.on_value(flow_name, k, value, at)

    def record_output(self, sink: str, flow_base: str, k: int, value: int,
                      at: int) -> None:
        workload = self.workload
        flow = workload.flow(flow_base)
        self.trace.record(OutputProduced(
            time=at, sink=sink, flow=flow_base, period_index=k, value=value,
            deadline=k * self.period + (flow.deadline or self.period),
            criticality=workload.flow_criticality(flow).value,
        ))


class BaselineSystem(SimulatedSystem):
    """Template for a single-plan fault-tolerance system."""

    name = "baseline"

    def __init__(self, workload: DataflowGraph, topology: Topology,
                 f: int = 1, seed: int = 0) -> None:
        super().__init__(workload, topology, seed)
        self.f = f
        #: The one deployment, a planner :class:`Plan` for the empty
        #: fault pattern; filled by :meth:`prepare`.
        self.plan: Optional[Plan] = None

    # ------------------------------------------------------ subclass hooks

    def make_augmented(self) -> DataflowGraph:
        raise NotImplementedError

    # -------------------------------------------------------------- prepare

    def prepare(self) -> GlobalSchedule:
        augmented = self.make_augmented()
        # Baselines place by load balance alone — the locality heuristic is
        # a BTR planner feature, and with lightly-loaded singleton tasks it
        # would degenerately pile everything next to the sources.
        assignment = place(augmented, self.topology, excluding=set(),
                           config=PlacementConfig(use_locality=False))
        schedule = synthesize(augmented, assignment, self.topology,
                              lane_model=self.lane_model)
        if not schedule.feasible:
            raise ValueError(
                f"{self.name}: unschedulable "
                f"({schedule.violations[0]}; {len(schedule.violations)} "
                f"violations total)"
            )
        self.plan = Plan(
            pattern=frozenset(), workload=self.workload,
            augmented=augmented, assignment=assignment, schedule=schedule,
            # Baselines shed nothing.
            kept_levels=set(Criticality),
            routes=derive_routes(schedule, augmented, self.topology,
                                 assignment))
        return schedule

    # ------------------------------------------------------------------ run

    def run(self, n_periods: int,
            adversary: Optional[FaultScript] = None
            ) -> RunResult:
        if self.plan is None:
            raise ValueError(f"{self.name}: call prepare() before run()")
        duration = self._run_periods(n_periods, adversary, Trace())
        return RunResult(
            trace=self.trace,
            config=None,
            workload=self.workload,
            n_periods=n_periods,
            duration_us=duration,
            budget=None,
            final_modes={n: self.name for n in self.agents},
            final_fault_sets={n: frozenset() for n in self.agents},
        )

    def compromisable_nodes(self) -> List[str]:
        endpoint_nodes = set(self.topology.endpoint_map.values())
        hosting = set(self.plan.assignment.values())
        return sorted(hosting - endpoint_nodes)

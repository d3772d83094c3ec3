"""The no-fault-tolerance baseline: one copy of everything.

Lower bound on cost (1× CPU, 1× traffic) and on resilience (any fault on a
hosting node disrupts its outputs forever). The original workload graph *is*
the deployed graph.
"""

from __future__ import annotations

from ..workload.dataflow import DataflowGraph
from ..workload.task import compute_output
from .base import BaselineAgent, BaselineSystem


class UnreplicatedAgent(BaselineAgent):
    """Each task runs once; flows are delivered directly."""

    def execute_instance(self, instance: str, k: int) -> None:
        graph = self.plan.augmented
        values = []
        for flow in graph.inputs_of(instance):
            value = self.inbox.get((flow.name, k))
            if value is None:
                return  # missing input: no output this period
            values.append(value)
        result = compute_output(instance, k, values)
        for flow in graph.outputs_of(instance):
            self.send_flow(flow.name, k, result)

    def on_value(self, flow_name: str, k: int, value: int, at: int) -> None:
        super().on_value(flow_name, k, value, at)
        flow = self.plan.flows.get(flow_name)
        if flow is not None and flow.dst in self.plan.augmented.sinks:
            self.record_output(flow.dst, flow.name, k, value, at)


class UnreplicatedSystem(BaselineSystem):
    """Deploy the workload as-is: no replicas, no detection, no recovery."""

    name = "unreplicated"

    def make_augmented(self) -> DataflowGraph:
        return self.workload

    def make_agent(self, node) -> UnreplicatedAgent:
        return UnreplicatedAgent(self, node)

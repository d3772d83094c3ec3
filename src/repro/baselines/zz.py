"""ZZ-style reactive baseline: f+1 execution replicas, recompute-on-mismatch.

ZZ (Wood et al., EuroSys 2011) runs only f+1 execution replicas by default
and escalates when they disagree. Our analogue on the CPS substrate: BTR's
f+1 replicas + checker topology, but the checker *masks* instead of
fast-forwarding — it waits for all replicas, compares, and on disagreement
re-executes the task to forward the provably correct value. Commission
faults therefore never reach the outputs (unlike BTR, which lets them leak
for ≤ R), at the price of forwarding latency and recompute cost, and with
no recovery: a fault keeps being masked (and re-masked) forever, and faults
on the checker host itself are not tolerated at all — ZZ assumes its
agreement tier is separate, an assumption the paper contrasts with BTR's
no-trusted-nodes model.
"""

from __future__ import annotations

from ..core.planner import naming
from ..core.planner.augment import AugmentConfig, augment
from ..workload.dataflow import DataflowGraph
from ..workload.task import compute_output
from .base import BaselineAgent, BaselineSystem


class ZZAgent(BaselineAgent):
    """Replicas compute; checkers wait-compare-recompute-forward."""

    def execute_instance(self, instance: str, k: int) -> None:
        base = naming.base_task(instance)
        if naming.is_checker(instance):
            self._run_checker(base, k)
        else:
            self._run_replica(instance, base, k)

    def _run_replica(self, instance: str, base: str, k: int) -> None:
        suffix = f"r{naming.replica_index(instance)}"
        values = []
        for flow in self.system.workload.inputs_of(base):
            value = self.inbox.get(
                (naming.flow_copy_name(flow.name, suffix), k))
            if value is None:
                return
            values.append(value)
        result = compute_output(base, k, values)
        for flow in self.plan.augmented.flows:
            if flow.src == instance:
                self.send_flow(flow.name, k, result)

    def _run_checker(self, base: str, k: int) -> None:
        r = self.system.f + 1
        replica_values = {}
        for i in range(r):
            value = self.inbox.get((naming.replica_output_flow(base, i), k))
            if value is not None:
                replica_values[i] = value
        if not replica_values:
            return
        distinct = set(replica_values.values())
        if len(distinct) == 1:
            forward = next(iter(distinct))
        else:
            # Disagreement: re-execute from the checker's own input copies
            # (ZZ's "activate agreement" analogue) and mask the fault.
            own = []
            for flow in self.system.workload.inputs_of(base):
                value = self.inbox.get(
                    (naming.flow_copy_name(flow.name, "c"), k))
                if value is None:
                    # Cannot arbitrate: fall back to the lowest replica.
                    own = None
                    break
                own.append(value)
            if own is None:
                forward = replica_values[min(replica_values)]
            else:
                forward = compute_output(base, k, own)
        for flow in self.system.workload.outputs_of(base):
            if flow.dst in self.system.workload.tasks:
                suffixes = [f"r{i}" for i in range(r)] + ["c"]
            else:
                suffixes = ["out"]
            for suffix in suffixes:
                self.send_flow(naming.flow_copy_name(flow.name, suffix),
                               k, forward)

    def on_value(self, flow_name: str, k: int, value: int, at: int) -> None:
        super().on_value(flow_name, k, value, at)
        flow = self.plan.flows.get(flow_name)
        if flow is not None and flow.dst in self.plan.augmented.sinks:
            self.record_output(flow.dst, naming.base_flow(flow_name), k,
                               value, at)


class ZZSystem(BaselineSystem):
    """f+1 execution replicas with reactive recompute masking."""

    name = "zz"

    def make_augmented(self) -> DataflowGraph:
        return augment(self.workload, AugmentConfig(
            replicas=self.f + 1, audit_flows=False,
        ))

    def make_agent(self, node) -> ZZAgent:
        return ZZAgent(self, node)

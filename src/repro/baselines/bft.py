"""BFT-style masking baseline: 3f+1 replicas, majority voting everywhere.

This models the classical "R = 0" point in the design space (§3.1): every
task runs 3f+1 replicas, every dataflow edge carries replica-to-replica
copies (r² messages per edge), consumers vote on their inputs, and a voter
at each sink releases an output once 2f+1 copies have arrived. Faults are
*masked* — no detection, no evidence, no reconfiguration — at the cost the
paper highlights: far more replicas and traffic than detection needs, and
output latency gated on the (2f+1)-th replica rather than the first.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from ..core.planner import naming
from ..crypto.signatures import Signature
from ..workload.dataflow import DataflowGraph, Flow
from ..workload.task import compute_output
from .base import BaselineAgent, BaselineSystem


def bft_copy(flow: str, i, j) -> str:
    """Name of the copy of ``flow`` from upstream replica i to downstream
    replica j (``s`` = source host, ``out`` = sink voter)."""
    return f"{flow}@{i}>{j}"


def majority(values: List[int]) -> int:
    """Deterministic plurality vote (ties break on the smaller value)."""
    counts = Counter(values)
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def bft_augment(workload: DataflowGraph, replicas: int) -> DataflowGraph:
    """3f+1-way replication with full replica-to-replica fan-out."""
    tasks = []
    for task in workload.tasks.values():
        for i in range(replicas):
            tasks.append(type(task)(
                name=naming.replica_name(task.name, i),
                wcet=task.wcet, criticality=task.criticality,
                state_bits=task.state_bits,
            ))
    flows: List[Flow] = []
    for flow in workload.flows:
        size = flow.size_bits + Signature.WIRE_BITS
        src_is_task = flow.src in workload.tasks
        dst_is_task = flow.dst in workload.tasks
        if src_is_task and dst_is_task:
            for i in range(replicas):
                for j in range(replicas):
                    flows.append(Flow(
                        name=bft_copy(flow.name, i, j),
                        src=naming.replica_name(flow.src, i),
                        dst=naming.replica_name(flow.dst, j),
                        size_bits=size, criticality=flow.criticality,
                    ))
        elif src_is_task:  # task -> sink: every replica reports to voter
            for i in range(replicas):
                flows.append(Flow(
                    name=bft_copy(flow.name, i, "out"),
                    src=naming.replica_name(flow.src, i),
                    dst=flow.dst, size_bits=size, deadline=flow.deadline,
                    criticality=flow.criticality,
                ))
        else:  # source -> task replicas
            for j in range(replicas):
                flows.append(Flow(
                    name=bft_copy(flow.name, "s", j),
                    src=flow.src, dst=naming.replica_name(flow.dst, j),
                    size_bits=size, criticality=flow.criticality,
                ))
    return DataflowGraph(
        period=workload.period, tasks=tasks, flows=flows,
        sources=set(workload.sources), sinks=set(workload.sinks),
        name=f"{workload.name}|bft{replicas}",
    )


class BFTAgent(BaselineAgent):
    """Replica execution with input voting; sink-side output voting."""

    def __init__(self, system, node) -> None:
        super().__init__(system, node)
        #: (sink flow base, period) -> received copy values.
        self._votes: Dict[Tuple[str, int], List[int]] = {}
        self._released: set = set()

    @property
    def replicas(self) -> int:
        return 3 * self.system.f + 1

    def execute_instance(self, instance: str, k: int) -> None:
        base = naming.base_task(instance)
        j = naming.replica_index(instance)
        workload = self.system.workload
        values = []
        for flow in workload.inputs_of(base):
            if flow.src in workload.tasks:
                copies = [
                    self.inbox.get((bft_copy(flow.name, i, j), k))
                    for i in range(self.replicas)
                ]
                received = [v for v in copies if v is not None]
                # Enough copies to out-vote up to f wrong ones?
                if len(received) < 2 * self.system.f + 1:
                    return
                values.append(majority(received))
            else:
                value = self.inbox.get((bft_copy(flow.name, "s", j), k))
                if value is None:
                    return
                values.append(value)
        result = compute_output(base, k, values)
        for flow in self.plan.augmented.flows:
            if flow.src == instance:
                self.send_flow(flow.name, k, result)

    def on_value(self, flow_name: str, k: int, value: int, at: int) -> None:
        super().on_value(flow_name, k, value, at)
        flow = self.plan.flows.get(flow_name)
        if flow is None or flow.dst not in self.plan.augmented.sinks:
            return
        base = flow_name.rsplit("@", 1)[0]
        key = (base, k)
        self._votes.setdefault(key, []).append(value)
        quorum = 2 * self.system.f + 1
        if key not in self._released and len(self._votes[key]) >= quorum:
            self._released.add(key)
            self.record_output(flow.dst, base, k,
                               majority(self._votes[key]), at)


class BFTSystem(BaselineSystem):
    """3f+1 state-machine-replication-style masking on the substrate."""

    name = "bft"

    def make_augmented(self) -> DataflowGraph:
        return bft_augment(self.workload, 3 * self.f + 1)

    def make_agent(self, node) -> BFTAgent:
        return BFTAgent(self, node)

"""Dataflow-graph augmentation: replicas, checking tasks, signed flows.

§4.1: "The planner first augments the dataflow graph with additional tasks.
It adds 1) replicas; 2) checking tasks, which compare the outputs of the
replicas to detect faults and generate evidence; and 3) verification tasks,
which distribute and verify incoming evidence from other nodes."

Concretely, for a replication degree ``r`` (BTR's default is f+1 — detection
needs fewer replicas than masking):

* each task ``t`` becomes replicas ``t#r0 … t#r{r-1}`` plus a checker
  ``t#c``;
* each flow into ``t`` is copied once per replica *and once for the
  checker* (the checker needs the inputs to re-execute on disagreement);
  the copy's producer is the upstream task's checker (checker-mediated
  dataflow: one agreed, signed value crosses each graph edge);
* each flow into ``t`` additionally gets one **audit copy per upstream
  replica** (``f@a0``, ``f@a1`` …): the upstream replicas send their signed
  outputs directly to ``t``'s checker, which lets it *prove* that a
  compromised upstream checker forwarded a value none of the replicas
  produced (forward-mismatch evidence) — without this, the single
  forwarding point would be an undetectable corruption site;
* each flow out of ``t`` to a sink becomes a single ``@out`` copy produced
  by the checker;
* every copied flow is enlarged by one signature (all data traffic is
  signed so that wrong outputs become transferable evidence).

Verification tasks (3) are not graph vertices: evidence verification and
distribution run on each node's statically reserved control lane
(:class:`repro.sim.node.Node` enforces the reservation), mirroring the
paper's "reserving some amount of computation ... for evidence
distribution".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...crypto.signatures import Signature
from ...workload.dataflow import DataflowGraph, Flow
from ...workload.task import Task
from . import naming


#: Nominal µs a checker needs to compare replica outputs and forward one.
DEFAULT_CHECK_US = 100


@dataclass(frozen=True)
class AugmentConfig:
    """Parameters of the augmentation."""

    #: Replica count per task. BTR uses f+1 (detection); BFT-style masking
    #: baselines pass 3f+1 here with voters instead of checkers.
    replicas: int = 2
    #: Emit replica→downstream-checker audit copies (BTR needs them to
    #: convict corrupting forwarders; the ZZ-style masking baseline, which
    #: recomputes instead of fast-forwarding, does not).
    audit_flows: bool = True

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("need at least one replica")


def augment(workload: DataflowGraph, params: AugmentConfig) -> DataflowGraph:
    """Return the augmented instance graph for ``workload``. See module
    docstring for the construction."""
    r = params.replicas
    tasks: List[Task] = []
    flows: List[Flow] = []

    # Declaration order, which the serialised artifact preserves.
    for task_name in workload.tasks:
        task = workload.tasks[task_name]
        for i in range(r):
            tasks.append(Task(
                name=naming.replica_name(task.name, i),
                wcet=task.wcet,
                criticality=task.criticality,
                state_bits=task.state_bits,
            ))
        tasks.append(Task(
            name=naming.checker_name(task.name),
            wcet=DEFAULT_CHECK_US,
            criticality=task.criticality,
            state_bits=0,
        ))
        # Replica outputs feed the task's checker: that is the edge the
        # checking task compares on. One flow per replica, sized like the
        # task's largest output plus a signature.
        out_bits = max(
            (fl.size_bits for fl in workload.outputs_of(task.name)),
            default=256,
        )
        for i in range(r):
            flows.append(Flow(
                name=naming.replica_output_flow(task.name, i),
                src=naming.replica_name(task.name, i),
                dst=naming.checker_name(task.name),
                size_bits=out_bits + Signature.WIRE_BITS,
                criticality=task.criticality,
            ))

    def producer_of(endpoint: str) -> str:
        """Instance that produces a flow whose original src is
        ``endpoint``: the checker for tasks, the endpoint itself for
        sources."""
        if endpoint in workload.tasks:
            return naming.checker_name(endpoint)
        return endpoint

    for flow in workload.flows:
        signed_size = flow.size_bits + Signature.WIRE_BITS
        src_instance = producer_of(flow.src)
        if flow.dst in workload.tasks:
            # One copy per consumer replica + one for the consumer's checker.
            for i in range(r):
                flows.append(Flow(
                    name=naming.flow_copy_name(flow.name, f"r{i}"),
                    src=src_instance,
                    dst=naming.replica_name(flow.dst, i),
                    size_bits=signed_size,
                    criticality=flow.criticality,
                ))
            flows.append(Flow(
                name=naming.flow_copy_name(flow.name, "c"),
                src=src_instance,
                dst=naming.checker_name(flow.dst),
                size_bits=signed_size,
                criticality=flow.criticality,
            ))
            # Audit copies: upstream replicas report their raw outputs to
            # the consumer's checker, so a corrupting forwarder is provable.
            if params.audit_flows and flow.src in workload.tasks:
                for i in range(r):
                    flows.append(Flow(
                        name=naming.flow_copy_name(flow.name, f"a{i}"),
                        src=naming.replica_name(flow.src, i),
                        dst=naming.checker_name(flow.dst),
                        size_bits=signed_size,
                        criticality=flow.criticality,
                    ))
        else:
            # Sink flow: the checker emits the single agreed output...
            flows.append(Flow(
                name=naming.flow_copy_name(flow.name, "out"),
                src=src_instance,
                dst=flow.dst,
                size_bits=signed_size,
                deadline=flow.deadline,
                criticality=flow.criticality,
            ))
            # ...and the replicas send audit copies to the sink host, so a
            # checker that corrupts an *actuator command* — the one edge
            # with no downstream checker to audit it — is still provable.
            if params.audit_flows and flow.src in workload.tasks:
                for i in range(r):
                    flows.append(Flow(
                        name=naming.flow_copy_name(flow.name, f"a{i}"),
                        src=naming.replica_name(flow.src, i),
                        dst=flow.dst,
                        size_bits=signed_size,
                        # Audits are evidence inputs, not commands, but
                        # sink-bound flows carry deadlines in the model;
                        # the command's own deadline is a natural bound.
                        deadline=flow.deadline,
                        criticality=flow.criticality,
                    ))

    return DataflowGraph(
        period=workload.period,
        tasks=tasks,
        flows=flows,
        sources=set(workload.sources),
        sinks=set(workload.sinks),
        name=f"{workload.name}|aug{r}",
    )

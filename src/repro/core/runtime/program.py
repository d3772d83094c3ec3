"""The node program: one node's duties under one plan, compiled once.

§4.1: "some representation of the strategy is then installed in each
node". A node under a plan does not derive its duties, it looks them up —
so everything :class:`~repro.core.runtime.agent.node.NodeAgent` and its
:class:`~repro.core.runtime.agent.detection.Detector` need per event
that is fixed by ``(plan, node)`` is worked out here once, from the
public :class:`~repro.core.planner.plan.Plan` / ``naming`` API, and read
from tables afterwards:

* **source emissions** — the hosted sources' flow copies in augmented-flow
  order (the order the synthesizer serialized the source lanes in);
* **members** — per hosted instance its slot, the inbox keys of its
  inputs, and what it sends to whom: a replica's output copies; a
  checker's expected replicas, replica-output flows, own-input and audit
  keys, and forward targets with their receivers;
* **execution groups** — instances per distinct slot finish, in
  ``instances_on`` order (one heap event per group and period);
* **consumed copies** — per flow copy this node finally consumes, the
  sink-output record fields and the upstream edges whose absence excuses
  a missing arrival; grouped by planned arrival for the omission checks;
* **next hops** — for every copy routed through this node;
* **statement templates** — the canonical-JSON skeleton of each signed
  per-message statement (see :mod:`repro.core.detector.checker`).

A program is a pure function of the plan (immutable once built), the
node, the static endpoint placement and the replication degree the plan
was augmented with; it references no agent, simulator or run. It is built
on first use and held by the plan (:attr:`Plan.programs`), so every run
of a search campaign, every sweep sibling and every mode switch back to a
known plan shares it. Adding a per-event lookup to the agent? Put it in
here.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..detector.checker import ForwardTemplate, OutputTemplate
from ..planner import naming
from ..planner.plan import Plan


class Send:
    """One flow copy as this node hands it to the data plane."""

    __slots__ = ("name", "final", "size_bits", "next_hop")

    def __init__(self, name: str, final: str, size_bits: int,
                 next_hop: Optional[str]) -> None:
        self.name = name
        #: Node hosting the copy's final consumer.
        self.final = final
        self.size_bits = size_bits
        #: Next node on the planned route from this node (None when the
        #: copy is consumed locally).
        self.next_hop = next_hop


class Emission:
    """One hosted source's reading on one flow copy."""

    __slots__ = ("source", "flow", "template", "send")

    def __init__(self, source: str, flow: str, template: ForwardTemplate,
                 send: Optional[Send]) -> None:
        self.source = source
        #: Logical flow the reading is signed for.
        self.flow = flow
        self.template = template
        self.send = send


class Audit:
    """One forwarded edge plus the upstream replicas' audit copies that
    can prove its forwarder corrupted the value."""

    __slots__ = ("src", "forwarded", "copies", "expected", "checker")

    def __init__(self, flow_name: str, src: str, suffix: str,
                 replicas: int) -> None:
        #: The producing task (audits only exist for task-fed edges).
        self.src = src
        #: The checker-forwarded copy under audit (``@c`` / ``@out``).
        self.forwarded = naming.flow_copy_name(flow_name, suffix)
        self.expected = tuple(naming.replica_name(src, i)
                              for i in range(replicas))
        #: (audit copy, upstream replica that sent it), by replica index.
        self.copies = tuple(
            (naming.flow_copy_name(flow_name, f"a{i}"), replica)
            for i, replica in enumerate(self.expected))
        #: The forwarder: ``src``'s checker instance.
        self.checker = naming.checker_name(src)


class Member:
    """One hosted instance: its slot and everything it reads and sends."""

    __slots__ = ("instance", "base", "is_checker", "duration", "finish",
                 "inputs", "template", "outputs",
                 "expected", "replica_flows", "audits", "forwards")

    def __init__(self, instance: str, base: str, is_checker: bool,
                 duration: int, finish: int) -> None:
        self.instance = instance
        self.base = base
        self.is_checker = is_checker
        #: Slot duration and finish (0 for an instance without a slot).
        self.duration = duration
        self.finish = finish
        #: Inbox copy names of the instance's inputs, in the base task's
        #: input order (``@r<i>`` for a replica, ``@c`` for a checker).
        self.inputs: Tuple[str, ...] = ()
        # Replica only:
        self.template: Optional[OutputTemplate] = None
        self.outputs: Tuple[Send, ...] = ()
        # Checker only:
        self.expected: Tuple[str, ...] = ()
        #: (replica-output flow, replica instance), by replica index.
        self.replica_flows: Tuple[Tuple[str, str], ...] = ()
        #: Per input, its :class:`Audit` (None for a source-fed edge).
        self.audits: Tuple[Optional[Audit], ...] = ()
        #: (logical flow, template, ((receiver node, send), ...)) per
        #: output flow of the base task.
        self.forwards: Tuple[tuple, ...] = ()


class Consumed:
    """One flow copy whose final consumer lives on this node."""

    __slots__ = ("output", "starved_by")

    def __init__(self, output: Optional[tuple],
                 starved_by: Tuple[str, ...]) -> None:
        #: ``(sink, logical flow, criticality value, deadline)`` when the
        #: copy is an actuator command (``@out`` into a sink), else None.
        self.output = output
        #: ``@c`` copies of the producer's task-fed inputs: if this node
        #: misses one (or holds it flagged ``reconstructed``) the producer
        #: was starved and a missing arrival is not its fault.
        self.starved_by = starved_by


class NodeProgram:
    """Everything one node looks up per event under one plan."""

    __slots__ = ("sources", "members", "exec_groups", "consumed",
                 "arrival_groups", "next_hop", "sink_audits")

    def __init__(self) -> None:
        self.sources: Tuple[Emission, ...] = ()
        #: instance -> member, for every instance assigned to this node.
        self.members: Dict[str, Member] = {}
        #: (slot finish, (instance, ...)) in ``instances_on`` order.
        #: Grouping equal finish times preserves the order one timer per
        #: instance would give: those timers would carry consecutive
        #: sequence numbers (no foreign schedule interleaves the loop),
        #: so members at one finish time fire back-to-back in emission
        #: order either way, and members at different times are ordered
        #: by time regardless of seq.
        self.exec_groups: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
        self.consumed: Dict[str, Consumed] = {}
        #: (planned arrival, (flow copy, ...)) over the consumed copies
        #: that have one, in flow order: expectations sharing an arrival
        #: share a check time (same consecutive-seq argument).
        self.arrival_groups: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
        #: flow copy -> next node, for copies routed through this node.
        self.next_hop: Dict[str, str] = {}
        #: Audits of the actuator commands this node's sinks receive.
        self.sink_audits: Tuple[Audit, ...] = ()


def node_program(plan: Plan, node_id: str,
                 endpoint_map: Mapping[str, str],
                 replicas: int) -> NodeProgram:
    """``node_id``'s program under ``plan``, compiled on first use.

    ``endpoint_map`` (source / sink -> hosting node) and ``replicas``
    (the augmentation's replication degree, f + 1) are the deployment
    facts the plan was built for; every caller of one plan passes the
    same ones."""
    program = plan.programs.get(node_id)
    if program is None:
        program = _compile(plan, node_id, endpoint_map, replicas)
        plan.programs[node_id] = program
    return program


def _grouped(pairs: List[Tuple[int, str]]
             ) -> Tuple[Tuple[int, Tuple[str, ...]], ...]:
    """``(key, name)`` pairs bucketed by key; buckets in first-seen order,
    names in input order."""
    buckets: Dict[int, List[str]] = {}
    for key, name in pairs:
        buckets.setdefault(key, []).append(name)
    return tuple((key, tuple(names)) for key, names in buckets.items())


def _compile(plan: Plan, node_id: str, endpoint_map: Mapping[str, str],
             replicas: int) -> NodeProgram:
    augmented = plan.augmented
    workload = plan.workload
    instances = augmented.tasks
    tasks = workload.tasks
    assignment = plan.assignment
    program = NodeProgram()

    # Flow names are unique per graph (DataflowGraph rejects duplicates).
    flows = {flow.name: flow for flow in augmented.flows}

    def final_consumer(flow) -> Optional[str]:
        if flow.dst in instances:
            return assignment.get(flow.dst)
        return endpoint_map.get(flow.dst)

    def send_of(copy: str) -> Optional[Send]:
        flow = flows.get(copy)
        if flow is None or not plan.routes.get(copy):
            return None
        final = final_consumer(flow)
        if final is None:
            return None
        return Send(copy, final, flow.size_bits,
                    plan.next_hop(copy, node_id))

    templates: Dict[str, ForwardTemplate] = {}

    def template_of(flow_name: str) -> ForwardTemplate:
        template = templates.get(flow_name)
        if template is None:
            template = templates[flow_name] = ForwardTemplate(flow_name)
        return template

    # ---- sources
    sources = []
    for flow in augmented.flows:
        if (flow.src in augmented.sources
                and endpoint_map.get(flow.src) == node_id):
            base = naming.base_flow(flow.name)
            sources.append(Emission(flow.src, base, template_of(base),
                                    send_of(flow.name)))
    program.sources = tuple(sources)

    # ---- members and execution groups
    slotted = []
    for instance in plan.instances_on(node_id):
        slot = plan.schedule.slot_for(instance)
        base = naming.base_task(instance)
        member = Member(instance, base, naming.is_checker(instance),
                        slot.duration if slot else 0,
                        slot.finish if slot else 0)
        program.members[instance] = member
        if slot is not None:
            slotted.append((slot.finish, instance))
        inputs = workload.inputs_of(base)
        if not member.is_checker:
            suffix = f"r{naming.replica_index(instance)}"
            member.inputs = tuple(naming.flow_copy_name(f.name, suffix)
                                  for f in inputs)
            member.template = OutputTemplate(base, instance)
            # One statement, several recipients: own checker + audits.
            sends = [send_of(f.name) for f in augmented.outputs_of(instance)]
            member.outputs = tuple(s for s in sends if s is not None)
            continue
        member.inputs = tuple(naming.flow_copy_name(f.name, "c")
                              for f in inputs)
        member.expected = tuple(naming.replica_name(base, i)
                                for i in range(replicas))
        member.replica_flows = tuple(
            (naming.replica_output_flow(base, i), replica)
            for i, replica in enumerate(member.expected))
        # Source-host flows have no replica audit.
        member.audits = tuple(
            Audit(f.name, f.src, "c", replicas) if f.src in tasks else None
            for f in inputs)
        forwards = []
        for flow in workload.outputs_of(base):
            if flow.dst in tasks:
                suffixes = [f"r{i}" for i in range(replicas)] + ["c"]
            else:
                suffixes = ["out"]
            targets = []
            for suffix in suffixes:
                copy = naming.flow_copy_name(flow.name, suffix)
                target = flows.get(copy)
                receiver = (final_consumer(target)
                            if target is not None else None)
                targets.append((receiver, send_of(copy)))
            forwards.append((flow.name, template_of(flow.name),
                             tuple(targets)))
        member.forwards = tuple(forwards)
    program.exec_groups = _grouped(slotted)

    # ---- consumed copies and arrival groups
    arrivals = []
    for flow in augmented.flows:
        name = flow.name
        if final_consumer(flow) != node_id:
            continue
        output = None
        if name.endswith("@out") and flow.dst in augmented.sinks:
            base = naming.base_flow(name)
            criticality = workload.flow_criticality(workload.flow(base))
            output = (flow.dst, base, criticality.value, flow.deadline)
        program.consumed[name] = Consumed(output,
                                          _starved_by(workload, name))
        arrival = plan.planned_arrival(name)
        if arrival is not None:
            arrivals.append((arrival, name))
    program.arrival_groups = _grouped(arrivals)

    # ---- next hops
    for copy, route in plan.routes.items():
        if node_id in route:
            hop = plan.next_hop(copy, node_id)
            if hop is not None:
                program.next_hop[copy] = hop

    # ---- sink audits
    program.sink_audits = tuple(
        Audit(flow.name, flow.src, "out", replicas)
        for flow in workload.sink_flows()
        if endpoint_map.get(flow.dst) == node_id)
    return program


def _starved_by(workload, flow_copy: str) -> Tuple[str, ...]:
    """The upstream ``@c`` edges whose absence at the consumer proves
    ``flow_copy``'s producer was starved this period.

    Replicas read their inputs from the upstream checker; if the
    consumer's own copy of such an edge is missing or arrived flagged
    ``reconstructed`` (the upstream checker signed an admission that its
    stage's replicas were starved), the producer cannot have produced.

    For audit copies the producer's input edges terminate at *its*
    checker, not at the consumer, so this conservatively excuses them
    whenever the producer has any task-fed input — the authoritative
    omission detector for a silent replica is its own checker, which
    sees the replica-output edge directly."""
    if naming.is_replica_output_flow(flow_copy):
        producer, _ = naming.replica_output_parts(flow_copy)
    elif "@a" in flow_copy:
        try:
            producer = workload.flow(naming.base_flow(flow_copy)).src
        except KeyError:
            return ()
        if producer not in workload.tasks:
            return ()
    else:
        return ()
    # Source-host edges have no checker to die.
    return tuple(naming.flow_copy_name(f.name, "c")
                 for f in workload.inputs_of(producer)
                 if f.src in workload.tasks)

"""The per-node BTR agent.

Each node runs one :class:`NodeAgent` that implements the node's whole
runtime behaviour:

* **dispatch** — execute the active plan's schedule table each period
  (replicas compute; checkers compare, forward, and detect);
* **data plane** — sign, send, and forward flow messages hop-by-hop on the
  reserved DATA lanes;
* **detection** — timing judgement on every delivery, omission checks per
  expected flow copy, checker comparison/re-execution, audit of upstream
  forwarders, and the equivocation-investigation protocol;
* **evidence plane** — validate-then-forward flooding on EVIDENCE lanes,
  slander accounting, blame tracking and attribution;
* **mode switching** — deterministic switch boundaries, state transfer on
  STATE lanes, and post-switch declaration suppression.

A compromised node's agent consults its installed
:class:`~repro.faults.behaviors.FaultBehavior` at every output decision
point; its resources stay enforced by the substrate.

What a node does under a plan is fixed by the plan, so the agent derives
none of it per event: ``self.program`` is the node's compiled
:class:`~repro.core.runtime.program.NodeProgram` under ``self.plan`` —
which copies it emits, executes, forwards, expects and audits, with every
name already spelled — and the dispatch, data-plane and detection paths
below are table reads. Only the cold paths (evidence, investigations,
mode switches) still parse names.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from ...crypto.authenticator import AuthenticatedStatement
from ...crypto.costs import VERIFY_US
from ...crypto.signatures import Signature
from ...faults.behaviors import FaultBehavior
from ...sim.message import Message, MessageKind
from ...sim.trace import (
    EvidenceAccepted,
    EvidenceGenerated,
    EvidenceRejected,
    FaultInjected,
    ModeSwitchCompleted,
    ModeSwitchStarted,
    OutputProduced,
    PathDeclared,
    TaskExecuted,
    TaskShed,
)
from ...workload.task import compute_output, sensor_reading
from ..detector.checker import (
    audit_forward,
    build_forward_statement,
    build_output_statement,
    run_check,
)
from ..detector.omission import (
    DEFAULT_MIN_DECLARERS,
    DEFAULT_SLOT_THRESHOLD,
    OMISSION_GRACE_US,
    BlameTracker,
)
from ..detector.timing import (
    DEFAULT_TIMING,
    SELF_INCRIMINATING,
    SUSPICIOUS_ARRIVAL,
)
from ..evidence.distributor import EvidenceLog
from ..evidence.records import (
    ATTRIBUTION,
    COMMISSION,
    EQUIVOCATION,
    Evidence,
    EvidenceValidator,
    FORWARD_MISMATCH,
    TIMING,
    make_declaration,
)
from ..modes.switcher import SUPPRESS_PERIODS, ModeSwitcher
from ..modes.transition import compute_transition
from ..planner import naming
from ..planner.plan import Plan
from .program import (
    Audit,
    Consumed,
    Member,
    NodeProgram,
    Send,
    node_program,
)

#: Wire size of small control messages (fetch requests/responses).
CONTROL_BITS = 1_024
#: Periods to wait for a state transfer before rebuilding locally.
STATE_TIMEOUT_PERIODS = 2
#: Max control-plane records a node will *verify* per sender per period.
#: The CPU analogue of the reserved-bandwidth defence: a flooder can fill
#: its own link lane, but it cannot spend more than this slice of anyone's
#: control CPU (§4.3's DoS resistance).
EVIDENCE_QUOTA_PER_SENDER = 8
#: Local state rebuild rate (bits per µs) when no correct state source
#: survives.
REBUILD_BITS_PER_US = 50.0


class NodeAgent:
    """Runtime state machine for one node."""

    def __init__(self, system, node) -> None:
        self.system = system
        self.node = node
        self.node_id = node.node_id
        self.config = system.config
        #: The run's simulator and the workload period: agents live for
        #: one run, so both are plain attributes.
        self.sim = system.sim
        self.period = system.workload.period
        #: The run's hop runtime: every send crosses a link through it
        #: (unicast or vectorised fan-out).
        self._hops = system.batch_runtime
        self.behavior: FaultBehavior = FaultBehavior()
        # The switch lead is the budget's distribution bound.
        switch_lead = system.budget.distribution_us
        self.switcher = ModeSwitcher(
            system.strategy, system.workload.period, switch_lead,
            metrics=system.metrics,
        )
        self.plan: Plan = system.strategy.nominal
        #: This node's compiled tables under :attr:`plan`; replaced with
        #: the plan on every mode switch.
        self.program: NodeProgram = self._program_of(self.plan)
        #: Declarations older than this describe a previous plan regime
        #: (pre-switch cascades); neither local blame accounting nor
        #: attribution validation may use them.
        self._blame_cutoff = 0
        period = system.workload.period
        #: Declarations may support an attribution only if made within
        #: this window before its detected_at (accumulation + confusion).
        attribution_freshness = (
            (DEFAULT_SLOT_THRESHOLD + SUPPRESS_PERIODS + 2) * period
            + system.budget.settling_us
        )
        #: Evidence older than this on receipt is dropped outright: the
        #: anti-backdating half of the freshness defence.
        self._evidence_staleness = (4 * period + switch_lead
                                    + system.budget.settling_us)
        self.validator = EvidenceValidator(
            system.directory,
            roster_lookup=self._roster_lookup,
            period=period,
            attribution_freshness_us=attribution_freshness,
        )
        self.log = EvidenceLog(self.node_id, self.validator,
                               metrics=system.metrics)
        self.blame = BlameTracker(liveness=self._node_alive,
                                  metrics=system.metrics)
        #: origin -> time of last flooded heartbeat (liveness signal for
        #: the link-vs-node disambiguation in blame attribution).
        self._last_heartbeat: Dict[str, int] = {}
        self._heartbeats_seen: Set[Tuple[str, int]] = set()
        #: (flow_copy, period) -> received statement.
        self.inbox: Dict[Tuple[str, int], AuthenticatedStatement] = {}
        #: Instances blocked on state transfer/rebuild.
        self.pending_state: Set[str] = set()
        #: No omission declarations before this time (switch confusion).
        self.suppress_until = 0
        #: Signature cache: one statement per (logical flow, period).
        self._sign_cache: Dict[Tuple[str, int], AuthenticatedStatement] = {}
        #: Replicas that failed to substantiate their inputs: demoted from
        #: the forward fast path until the next mode change.
        self.demoted: Set[str] = set()
        #: (suspect instance, period) -> flow copies still unsubstantiated.
        self._investigations: Dict[Tuple[str, int], Set[str]] = {}
        #: Plan-dependent evidence rejected mid-switch; retried after the
        #: next mode change, when the plans should agree again.
        self._retry_evidence: List[Evidence] = []
        #: (sender, period) -> control records whose verification this
        #: node has already paid for (per-sender CPU quota, §4.3).
        self._ctrl_quota: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------ plan info

    def _program_of(self, plan: Plan) -> NodeProgram:
        return node_program(plan, self.node_id,
                            self.system.topology.endpoint_map,
                            self.config.f + 1)

    def _local_offset(self, k: int) -> int:
        """Period-relative time by this node's *local* clock — what the
        node can honestly attest in a signed statement. Correct nodes stay
        within the sync bound of true time; rogue clocks do not."""
        return self.node.clock.read(self.sim.now) - k * self.period

    def _roster_lookup(self, base: str) -> Optional[dict]:
        roster = {
            inst: host for inst, host in self.plan.assignment.items()
            if naming.base_task(inst) == base
        }
        return roster or None

    # ------------------------------------------------------- fault injection

    def compromise(self, behavior: FaultBehavior) -> None:
        self.behavior = behavior
        self.node.compromised = True
        behavior.on_activate(self)
        self.system.trace.record(FaultInjected(
            time=self.sim.now, node=self.node_id, fault_kind=behavior.kind,
        ))

    # ------------------------------------------------------------ period tick

    def on_period_start(self, k: int) -> None:
        if self.node.crashed:
            return
        period_start = k * self.period
        self._emit_sources(k)
        self._schedule_exec_groups(k, period_start)
        self._schedule_omission_checks(k)
        self._schedule_sink_audits(k)
        self._emit_heartbeat(k)
        if self.behavior.fabricates_evidence():
            self._flood_bogus_evidence(k)

    # --------------------------------------------------------------- sources

    def _emit_sources(self, k: int) -> None:
        sources = self.program.sources
        if not sources:
            return
        # Emit in the augmented graph's flow order — the schedule
        # synthesizer serialized the source lanes in exactly this order,
        # so any other order would reshuffle lane queueing and break the
        # timetable (a small reading queued behind a large one misses its
        # consumer's slot). Build every frame's payload in that order,
        # sign the uncached ones in one authenticator pass
        # (:meth:`AuthenticatedStatement.make_batch` — same tags and
        # ``signs`` count as signing each miss on its own), then send the
        # copies in the same order; signing schedules nothing, so the
        # two passes are trace-identical to sign-then-send per flow.
        emissions = []
        pending: Dict[tuple, tuple] = {}
        cache = self._sign_cache
        claimed_send_offset = self.behavior.claimed_send_offset
        actual_offset = self._local_offset(k)
        for emission in sources:
            value = sensor_reading(emission.source, k)
            send_offset = claimed_send_offset(actual_offset, 0)
            key = (emission.flow, k, value)
            emissions.append((emission.send, key))
            if key not in cache and key not in pending:
                payload = build_forward_statement(
                    flow=emission.flow, period=k, value=value,
                    send_offset=send_offset,
                )
                pending[key] = (payload,
                                emission.template.canonical(payload))
        if pending:
            payloads, canonicals = zip(*pending.values())
            signed = AuthenticatedStatement.make_batch(
                self.system.directory, self.node_id, payloads, canonicals)
            cache.update(zip(pending, signed))
        for send, key in emissions:
            if send is not None:
                self._send_copy(send, cache[key], k)

    # ------------------------------------------------------------- execution

    def _execute_instance(self, instance: str, k: int) -> None:
        if self.node.crashed or instance in self.pending_state:
            return
        # Looked up at execution time: a group scheduled under the
        # previous plan executes the current plan's member, or nothing if
        # the instance moved away.
        member = self.program.members.get(instance)
        if member is None:
            return
        trace = self.system.trace
        if trace.wants(TaskExecuted):
            trace.record_row(self.sim.now, (
                TaskExecuted, self.node_id, instance, k, member.duration))
        else:
            trace.tally(TaskExecuted)
        if member.is_checker:
            self._run_checker(member, k)
        else:
            self._run_replica(member, k)

    def _schedule_exec_groups(self, k: int, period_start: int) -> None:
        """Execution timers: one heap event per distinct slot finish
        time."""
        pending = self.pending_state
        call_at = self.sim.call_at
        execute = self._execute_group
        for finish, instances in self.program.exec_groups:
            if pending:
                instances = [i for i in instances if i not in pending]
                if not instances:
                    continue
            call_at(period_start + finish, partial(execute, instances, k))

    def _execute_group(self, instances, k: int) -> None:
        # One heap pop stands for len(instances) scheduled executions;
        # the events-executed gauge counts logical events.
        self.sim.events_executed += len(instances) - 1
        for instance in instances:
            self._execute_instance(instance, k)

    def _input_values(self, member: Member, k: int
                      ) -> Optional[List[int]]:
        """The values on the member's input copies for period ``k``, or
        None while any is missing."""
        inbox = self.inbox
        values = []
        for copy in member.inputs:
            stmt = inbox.get((copy, k))
            if stmt is None:
                return None
            values.append(stmt.statement.get("value"))
        return values

    # -- replica ----------------------------------------------------------

    def _run_replica(self, member: Member, k: int) -> None:
        values = self._input_values(member, k)
        if values is None:
            return  # missing inputs; the checker masks with siblings
        base = member.base
        value = compute_output(base, k, values)
        value = self.behavior.corrupt_value(base, k, value)
        payload = build_output_statement(
            task=base, instance=member.instance, period=k, value=value,
            input_values=values,
            send_offset=self.behavior.claimed_send_offset(
                self._local_offset(k), member.finish),
        )
        stmt = AuthenticatedStatement.make(
            self.system.directory, self.node_id, payload,
            member.template.canonical(payload))
        # One statement, several recipients: own checker + audit copies.
        for send in member.outputs:
            self._send_copy(send, stmt, k)

    # -- checker ----------------------------------------------------------

    def _reconstruct_inputs_from_audits(self, member: Member, k: int
                                        ) -> Optional[List[int]]:
        """Best-effort input reconstruction when the upstream *checker*
        went silent: the upstream replicas' audit copies carry candidate
        values for exactly the missing edge. Pick per edge the plurality
        among available audit copies (≤ f wrong with one honest present —
        good enough to keep the pipeline flowing; conviction-grade checks
        still require proper statements)."""
        values: List[int] = []
        inbox = self.inbox
        for copy, audit in zip(member.inputs, member.audits):
            own = inbox.get((copy, k))
            if own is not None:
                values.append(own.statement.get("value"))
                continue
            if audit is None:
                return None  # source-host edge: no audits exist
            counts: Dict[int, int] = {}
            for audit_copy, _ in audit.copies:
                stmt = inbox.get((audit_copy, k))
                if stmt is not None:
                    value = stmt.statement.get("value")
                    counts[value] = counts.get(value, 0) + 1
            if not counts:
                return None
            values.append(max(sorted(counts), key=lambda v: counts[v]))
        return values

    def _run_checker(self, member: Member, k: int) -> None:
        base = member.base
        inbox = self.inbox
        expected = member.expected
        if self.demoted:
            # Demoted replicas lose fast-path priority: their
            # unsubstantiated values are only used when nothing better
            # arrived. (Stable: index order survives within each class.)
            expected = sorted(expected,
                              key=lambda inst: inst in self.demoted)
        replica_stmts = {}
        for flow, replica in member.replica_flows:
            stmt = inbox.get((flow, k))
            if stmt is not None:
                replica_stmts[replica] = stmt
        own_values = self._input_values(member, k)
        outcome = run_check(base, k, expected, replica_stmts, own_values)

        if not self.behavior.suppresses_detection():
            for audit in member.audits:
                if audit is not None:
                    self._audit_forwarder(audit, k)

        forward_value = outcome.forward_value
        was_reconstructed = False
        if forward_value is None:
            # All replicas silent — typically because the *upstream
            # checker's host* died and starved them. The audit copies from
            # the upstream replicas carry the missing values: reconstruct
            # the inputs and re-execute, so one dead forwarding point does
            # not stall the whole downstream pipeline (and spray omission
            # blame over its innocent members).
            reconstructed = self._reconstruct_inputs_from_audits(member, k)
            if reconstructed is not None:
                forward_value = compute_output(base, k, reconstructed)
                was_reconstructed = True

        if forward_value is not None:
            self._forward_value(member, k, forward_value,
                                reconstructed=was_reconstructed)

        if self.behavior.suppresses_detection():
            return

        for convicted in outcome.convicted:
            stmt = replica_stmts[convicted]
            host = self.plan.assignment.get(convicted)
            if host is None:
                continue
            self._emit_evidence(
                COMMISSION, host,
                [stmt] + [inbox[(copy, k)] for copy in member.inputs])
        for suspect in outcome.investigate:
            self._start_investigation(suspect, base, k)

    def _forward_value(self, member: Member, k: int, value: int,
                       reconstructed: bool = False) -> None:
        base = member.base
        planned_offset = member.finish
        actual_offset = self._local_offset(k)
        behavior = self.behavior
        cache = self._sign_cache
        for flow, template, targets in member.forwards:
            for receiver, send in targets:
                sent_value = behavior.corrupt_value(
                    base, k, value, receiver=receiver)
                send_offset = behavior.claimed_send_offset(
                    actual_offset, planned_offset)
                # Honest nodes sign one statement per (flow, period).
                # Equivocators produce several (the cache key includes
                # the value), which is the contradiction the
                # investigation protocol later proves.
                key = (flow, k, sent_value)
                stmt = cache.get(key)
                if stmt is None:
                    payload = build_forward_statement(
                        flow=flow, period=k, value=sent_value,
                        send_offset=send_offset,
                        reconstructed=reconstructed,
                    )
                    stmt = cache[key] = AuthenticatedStatement.make(
                        self.system.directory, self.node_id, payload,
                        template.canonical(payload))
                if send is not None:
                    self._send_copy(send, stmt, k)

    # -- audit of forwarders ------------------------------------------------

    def _audit_forwarder(self, audit: Audit, k: int) -> None:
        """Accuse ``audit.src``'s checker if the value it forwarded this
        period is one none of the replicas' audit copies carries."""
        if audit.src not in self.plan.workload.tasks:
            return  # source-host (or since-shed) flows have no audit
        inbox = self.inbox
        fwd = inbox.get((audit.forwarded, k))
        if fwd is None:
            return
        audits = {}
        for copy, replica in audit.copies:
            stmt = inbox.get((copy, k))
            if stmt is not None:
                audits[replica] = stmt
        if audit_forward(fwd, audits, audit.expected):
            accused = self.plan.assignment.get(audit.checker)
            if accused is not None:
                self._emit_evidence(
                    FORWARD_MISMATCH, accused,
                    [fwd] + [audits[i] for i in audit.expected],
                )

    def _schedule_sink_audits(self, k: int) -> None:
        """Sink hosts audit every actuator command against the producing
        replicas' audit copies at the end of the period — the one edge
        with no downstream checker (§4.1's checking tasks cover
        task-to-task edges; the actuators themselves cannot check)."""
        if self.behavior.suppresses_detection():
            return
        audits = self.program.sink_audits
        if not audits:
            return
        self.sim.call_at((k + 1) * self.period - 1,
                         partial(self._audit_sink_outputs, audits, k))

    def _audit_sink_outputs(self, audits, k: int) -> None:
        if self.node.crashed or self.sim.now < self.suppress_until:
            return
        for audit in audits:
            self._audit_forwarder(audit, k)

    # -- equivocation investigation ----------------------------------------

    def _start_investigation(self, suspect_instance: str, base: str,
                             k: int) -> None:
        host = self.plan.assignment.get(suspect_instance)
        if host is None or (suspect_instance, k) in self._investigations:
            return
        index = naming.replica_index(suspect_instance)
        outstanding: Set[str] = set()
        for flow in self.plan.workload.inputs_of(base):
            copy = naming.flow_copy_name(flow.name, f"r{index}")
            outstanding.add(copy)
            request = Message(
                src=self.node_id, dst=host, kind=MessageKind.CONTROL,
                payload=("fetch_req", copy, naming.base_flow(flow.name), k,
                         self.node_id),
                size_bits=CONTROL_BITS,
            )
            self.system.send_routed(self, request, self.plan)
        if not outstanding:
            return
        self._investigations[(suspect_instance, k)] = outstanding
        self.sim.call_after(
            self.period,
            lambda: self._investigation_timeout(suspect_instance, base, k),
        )

    def _investigation_timeout(self, suspect: str, base: str, k: int
                               ) -> None:
        """A replica that cannot substantiate its inputs within one period
        is demoted from the fast path, and the path to its host is declared
        problematic — a correct replica always answers, so persistent
        silence converges on its host via blame attribution."""
        outstanding = self._investigations.pop((suspect, k), None)
        if not outstanding or self.node.crashed:
            return
        self.demoted.add(suspect)
        index = naming.replica_index(suspect)
        if index is not None:
            self._declare_path(naming.replica_output_flow(base, index), k)

    def _handle_fetch_request(self, copy: str, base: str, k: int,
                              requester: str) -> None:
        if self.behavior.suppresses_detection() and self.node.compromised:
            return  # compromised nodes ignore investigation duties
        stmt = self.inbox.get((copy, k))
        if stmt is None:
            return
        response = Message(
            src=self.node_id, dst=requester, kind=MessageKind.CONTROL,
            payload=("fetch_resp", copy, base, k, stmt),
            size_bits=CONTROL_BITS + stmt.wire_bits(),
        )
        self.system.send_routed(self, response, self.plan)

    def _handle_fetch_response(self, copy: str, base: str, k: int,
                               stmt: AuthenticatedStatement) -> None:
        if not stmt.valid(self.system.directory):
            return
        for key, outstanding in list(self._investigations.items()):
            outstanding.discard(copy)
            if not outstanding:
                del self._investigations[key]
        mine = self.inbox.get((naming.flow_copy_name(base, "c"), k))
        if mine is None:
            return
        if (mine.signer == stmt.signer
                and mine.statement.get("flow") == stmt.statement.get("flow")
                and mine.statement.get("period") == stmt.statement.get("period")
                and mine.statement.get("value") != stmt.statement.get("value")):
            self._emit_evidence(EQUIVOCATION, stmt.signer, [mine, stmt])

    # --------------------------------------------------------- data plane

    def _send_copy(self, send: Send, stmt: AuthenticatedStatement,
                   k: int) -> None:
        flow_copy = send.name
        final = send.final
        if self.behavior.drops_message(flow_copy, k, final):
            return
        delay = self.behavior.delay_send(flow_copy, k)
        message = Message(self.node_id, final, MessageKind.DATA,
                          ("data", flow_copy, k, stmt), send.size_bits,
                          flow_copy)
        if final == self.node_id:
            self.sim.call_at(self.sim.now + max(1, delay),
                             partial(self._deliver_local, message))
        elif send.next_hop is not None:
            self._transmit_after(delay, send.next_hop, message)

    def _deliver_local(self, message: Message) -> None:
        if not self.node.crashed:
            self._on_message(message, self.sim.now)

    def _transmit_after(self, delay: int, next_hop: str,
                        message: Message) -> None:
        if delay > 0:
            self.sim.call_at(
                self.sim.now + delay,
                partial(self._hops.send, self.node_id, next_hop,
                        message))
        else:
            self._hops.send(self.node_id, next_hop, message)

    def _forward_data(self, message: Message) -> None:
        """Intermediate hop: pass the message along its planned route."""
        _, flow_copy, k, _stmt = message.payload
        if self.behavior.drops_message(flow_copy, k, message.dst):
            return
        next_hop = self.program.next_hop.get(flow_copy)
        if next_hop is None:
            return
        self._transmit_after(self.behavior.delay_send(flow_copy, k),
                             next_hop, message)

    # ------------------------------------------------------------ deliveries

    def _on_message(self, message: Message, at: int) -> None:
        kind = message.kind
        if kind == MessageKind.DATA:
            self._on_data(message, at)
        elif kind == MessageKind.EVIDENCE:
            self._on_evidence_message(message)
        elif kind == MessageKind.CONTROL:
            self._on_control(message)
        elif kind == MessageKind.STATE:
            self._on_state(message)

    def _on_data(self, message: Message, at: int) -> None:
        payload = message.payload
        if not (isinstance(payload, tuple) and payload[0] == "data"):
            return
        _, flow_copy, k, stmt = payload
        if message.dst != self.node_id:
            self._forward_data(message)
            return
        if not isinstance(stmt, AuthenticatedStatement):
            return
        if not stmt.valid(self.system.directory):
            return  # unauthenticated data is ignored outright
        self.inbox[(flow_copy, k)] = stmt
        self._judge_timing(flow_copy, stmt, k, at)
        consumed = self.program.consumed.get(flow_copy)
        if consumed is not None and consumed.output is not None:
            # An actuator command (audit copies to the sink host are
            # not commands).
            sink, flow, criticality, deadline = consumed.output
            self.system.trace.record(OutputProduced(
                time=at, sink=sink, flow=flow, period_index=k,
                value=stmt.statement.get("value"),
                deadline=k * self.period + (deadline or self.period),
                criticality=criticality,
            ))

    def _judge_timing(self, flow_copy: str, stmt: AuthenticatedStatement,
                      k: int, at: int) -> None:
        if self.behavior.suppresses_detection():
            return
        if at < self.suppress_until:
            return  # transition confusion: schedules are shifting
        offset = stmt.statement.get("send_offset")
        if offset is None:
            return
        arrival_offset = at - k * self.period
        slack = DEFAULT_TIMING.slack_us
        if not -slack <= offset <= self.period + slack:
            # Grossly invalid claimed send time: self-incriminating,
            # plan-independent — transferable evidence.
            self._emit_evidence(TIMING, stmt.signer, [stmt])
            return
        verdict = DEFAULT_TIMING.judge(
            self.plan, stmt.statement.get("flow", flow_copy), flow_copy,
            offset, arrival_offset,
        )
        if verdict in (SELF_INCRIMINATING, SUSPICIOUS_ARRIVAL):
            # Wrong slot within the period: real, but only provable
            # relative to a plan — route through path declarations.
            self._declare_path(flow_copy, k)

    # --------------------------------------------------------- omission

    def _schedule_omission_checks(self, k: int) -> None:
        if self.behavior.suppresses_detection():
            return
        period_start = k * self.period
        wait = DEFAULT_TIMING.arrival_slack_us + OMISSION_GRACE_US
        call_at = self.sim.call_at
        check = self._check_arrival_group
        for arrival, copies in self.program.arrival_groups:
            call_at(period_start + arrival + wait, partial(check, copies, k))

    def _check_arrival_group(self, copies, k: int) -> None:
        # One heap pop stands for len(copies) scheduled checks.
        self.sim.events_executed += len(copies) - 1
        for flow_copy in copies:
            self._check_arrival(flow_copy, k)

    def _check_arrival(self, flow_copy: str, k: int) -> None:
        if self.node.crashed or (flow_copy, k) in self.inbox:
            return
        if self.sim.now < self.suppress_until:
            return
        # Read at check time: a check scheduled under the previous plan
        # judges by the current one, and a copy this node no longer
        # consumes is no longer its expectation.
        consumed = self.program.consumed.get(flow_copy)
        if consumed is None or self._producer_starved(consumed, k):
            # The producer provably had nothing to send: an upstream
            # outage starved it. Blame belongs upstream (where the broken
            # @c edge is declared), not on the starved innocent.
            return
        self._declare_path(flow_copy, k)

    def _producer_starved(self, consumed: Consumed, k: int) -> bool:
        """Was the copy's producer a replica starved by an upstream
        outage this period? (:func:`repro.core.runtime.program._starved_by`
        names the edges whose absence here proves it.)"""
        inbox = self.inbox
        for copy in consumed.starved_by:
            stmt = inbox.get((copy, k))
            if stmt is None or stmt.statement.get("reconstructed"):
                return True
        return False

    def _declare_path(self, flow_copy: str, k: int) -> None:
        route = self.plan.routes.get(flow_copy)
        if not route or len(route) < 1:
            return
        if set(route) & self.switcher.fault_set.snapshot():
            return  # known fault on the path; the switch is already coming
        self.system.trace.record(PathDeclared(
            time=self.sim.now, declarer=self.node_id, path=tuple(route),
            flow=naming.base_flow(flow_copy), period_index=k,
        ))
        decl = make_declaration(
            self.system.directory, self.node_id, route,
            naming.base_flow(flow_copy), k, self.sim.now,
        )
        if self.log.note_declaration(decl):
            self._handle_declaration(decl, from_neighbor=None)

    # ------------------------------------------------------ evidence plane

    def _emit_evidence(self, kind: str, accused: str,
                       statements: List[AuthenticatedStatement]) -> None:
        if self.behavior.suppresses_detection():
            return
        if accused in self.switcher.fault_set:
            return  # already known faulty; don't re-litigate
        evidence = Evidence.make(
            self.system.directory, kind, accused, self.node_id,
            detected_at=self.sim.now, statements=statements,
        )
        self.system.trace.record(EvidenceGenerated(
            time=self.sim.now, detector_node=self.node_id,
            accused_node=accused, fault_kind=kind,
            evidence_id=int(evidence.evidence_id[:8], 16),
        ))
        if self.log.note_evidence(evidence):
            self._handle_evidence(evidence, from_neighbor=None)

    def _handle_evidence(self, evidence: Evidence,
                         from_neighbor: Optional[str],
                         endorsement: Optional[Signature] = None) -> None:
        """Evaluate an already-noted record (dedup happens at receipt)."""
        if self.sim.now - evidence.detected_at > self._evidence_staleness:
            # Too old to act on: either a backdated harvest attempt or a
            # record that crawled here long after its recovery concluded.
            return
        decision = self.log.evaluate_evidence(evidence)
        if decision.reason == "bad_signature":
            self.system.trace.record(EvidenceRejected(
                time=self.sim.now, node=self.node_id,
                claimed_signer=evidence.detector, reason="bad_signature",
            ))
            # §4.3 endorsement rule: the record's claimed author is
            # unauthenticated, but whoever *endorsed and distributed* it
            # is not — and correct nodes validate before forwarding, so
            # endorsing junk is slander by the endorser.
            if endorsement is not None and self.system.directory.verify(
                    {"type": "endorse", "ref": evidence.evidence_id},
                    endorsement):
                implicated = self.log.count_slander(endorsement.signer)
                if implicated:
                    self._implicate(implicated, self.sim.now)
        elif decision.reason == "unsupported":
            self.system.trace.record(EvidenceRejected(
                time=self.sim.now, node=self.node_id,
                claimed_signer=evidence.detector, reason="unsupported",
            ))
        if decision.accept:
            self.system.trace.record(EvidenceAccepted(
                time=self.sim.now, node=self.node_id,
                accused_node=evidence.accused,
                evidence_id=int(evidence.evidence_id[:8], 16),
            ))
        if decision.reason == "unsupported_soft":
            self._retry_evidence.append(evidence)
        if decision.implicate:
            self._implicate(decision.implicate, evidence.detected_at)
        if decision.forward:
            self._broadcast(("evidence", evidence), evidence.wire_bits(),
                            exclude=from_neighbor)

    def _retry_soft_rejected(self, evidence: Evidence) -> None:
        """Re-submit a plan-dependent record after a mode switch."""
        if self.log.note_evidence(evidence):
            self.system.metrics.inc("evidence_retries")
            self._handle_evidence(evidence, from_neighbor=None)

    def _handle_declaration(self, decl: AuthenticatedStatement,
                            from_neighbor: Optional[str]) -> None:
        """Evaluate an already-noted declaration."""
        decision = self.log.evaluate_declaration(decl)
        if not decision.accept:
            return
        if decl.statement.get("declared_at", 0) >= self._blame_cutoff:
            self.blame.add_declaration(decl)
        for accused in self.blame.newly_attributable():
            if accused in self.switcher.fault_set:
                continue
            support = self._minimal_attribution_support(accused)
            if support is not None:
                self._emit_evidence(ATTRIBUTION, accused, support)
            else:
                # Not enough fresh corroboration yet: let later
                # declarations retry instead of leaving the mark sticky.
                self.blame.attributed.discard(accused)
        self._broadcast(("declaration", decl),
                        decl.wire_bits() + CONTROL_BITS,
                        exclude=from_neighbor)

    def _minimal_attribution_support(self, accused: str
                                     ) -> Optional[List[AuthenticatedStatement]]:
        """The smallest declaration set that proves an attribution:
        ``DEFAULT_SLOT_THRESHOLD`` distinct slots from
        ``DEFAULT_MIN_DECLARERS`` declarers.

        Keeping the record minimal matters operationally: every node on the
        flooding path verifies every statement on its reserved control
        lane, so oversized records delay the very mode switch the evidence
        is supposed to trigger.
        """
        candidates = [
            d for d in self.blame.supporting_declarations(
                accused, self.log.declarations)
            # Stale (pre-cutoff) declarations describe the previous regime;
            # validators reject bundles containing any, so never pick them.
            if d.statement.get("declared_at", 0) >= self._blame_cutoff
        ]
        # Validation counts distinct (path, period, declarer) slots, so
        # pick one declaration per slot.
        unique: List[AuthenticatedStatement] = []
        slot_keys = set()
        for decl in candidates:
            key = (tuple(decl.statement["path"]),
                   decl.statement["period"], decl.signer)
            if key not in slot_keys:
                slot_keys.add(key)
                unique.append(decl)
        by_declarer: Dict[str, List[AuthenticatedStatement]] = {}
        for decl in unique:
            by_declarer.setdefault(decl.signer, []).append(decl)
        if len(by_declarer) < DEFAULT_MIN_DECLARERS:
            return None
        # One slot from each declarer first (corroboration), then fill up
        # to the slot threshold.
        support: List[AuthenticatedStatement] = []
        for signer in sorted(by_declarer)[:DEFAULT_MIN_DECLARERS]:
            support.append(by_declarer[signer][0])
        seen = {id(s) for s in support}
        for decl in unique:
            if len(support) >= DEFAULT_SLOT_THRESHOLD:
                break
            if id(decl) not in seen:
                support.append(decl)
                seen.add(id(decl))
        if len(support) < DEFAULT_SLOT_THRESHOLD:
            return None
        return support

    def _broadcast(self, payload: tuple, bits: int,
                   exclude: Optional[str]) -> None:
        """Forward a control record to the neighbours, *endorsed*.

        §4.3: "If nodes are required to endorse evidence they distribute,
        invalid evidence can be counted as evidence against the signer."
        The endorsement is this node's signature over the record's id;
        receivers drop unendorsed records without any processing, and an
        endorser of improperly signed junk takes the slander charge that
        the junk's (unauthenticated) claimed author cannot.
        """
        if self.node.crashed:
            return
        record = payload[1]
        if isinstance(record, Evidence):
            ref = record.evidence_id
        else:
            ref = record.payload_digest()
        endorsement = self.system.directory.sign(
            self.node_id, {"type": "endorse", "ref": ref})
        # One frozen envelope shared by every per-neighbour copy: the
        # record is signed and immutable, so receivers can safely alias
        # it, and N neighbours cost one tuple build instead of N.
        envelope = payload + (endorsement,)
        self._hops.flood_messages(self, MessageKind.EVIDENCE,
                                     envelope, bits, exclude)

    def _on_evidence_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, tuple) or len(payload) != 3:
            return  # unendorsed records cost nothing: dropped outright
        tag, record, endorsement = payload
        src = message.src
        # §4.3: nodes endorse what they distribute. The endorsement must
        # be by the forwarding hop itself; anything else is dropped before
        # any processing. (Whether the signature is *valid* is checked on
        # the control lane with the rest of the verification work.)
        if (not isinstance(endorsement, Signature)
                or endorsement.signer != src):
            return
        # Quota *before* the dedup mark: a record dropped for quota must
        # not be remembered as seen, or the copies arriving from other
        # neighbours (whose quota buckets are separate) would be discarded
        # and the record lost fleet-wide — during a declaration storm that
        # silently splits the fault sets. Senders dedup before forwarding,
        # so each sender charges each record to its bucket at most once.
        if tag == "evidence" and isinstance(record, Evidence):
            if not self._take_ctrl_quota(src, tag):
                return
            if not self.log.note_evidence(record):
                return
            cost = VERIFY_US * (2 + len(record.statements))
            self.node.execute(
                self.sim, cost,
                callback=lambda: self._handle_evidence(
                    record, src, endorsement=endorsement),
                lane="ctrl",
            )
        elif tag == "declaration" and isinstance(record,
                                                 AuthenticatedStatement):
            if not self._take_ctrl_quota(src, tag):
                return
            if not self.log.note_declaration(record):
                return
            self.node.execute(
                self.sim, VERIFY_US,
                callback=lambda: self._handle_declaration(record, src),
                lane="ctrl",
            )

    def _take_ctrl_quota(self, sender: str, tag: str) -> bool:
        """Per-sender, per-class verification quota: a flooding neighbour
        can fill its own reserved link lane, but it may not consume more
        than a fixed slice of this node's control CPU per period (§4.3).
        Bulk declarations and rare accusation evidence draw from separate
        buckets, so a declaration storm cannot crowd out an attribution."""
        key = (sender, tag, self.sim.now // self.period)
        spent = self._ctrl_quota.get(key, 0)
        if spent >= EVIDENCE_QUOTA_PER_SENDER:
            return False
        self._ctrl_quota[key] = spent + 1
        return True

    def _flood_bogus_evidence(self, k: int) -> None:
        behavior = self.behavior
        count = getattr(behavior, "records_per_period", 0)
        others = [n for n in self.system.topology.node_ids()
                  if n != self.node_id]
        proper = getattr(behavior, "proper_signatures", False)
        for i in range(count):
            accused = (getattr(behavior, "accused", None)
                       or others[(k + i) % len(others)])
            if proper:
                # Validly signed but unsupported: survives the cheap check,
                # dies in full validation, and counts against this signer.
                bogus = Evidence.make(
                    self.system.directory, COMMISSION, accused,
                    self.node_id, detected_at=self.sim.now + i,
                    statements=[],
                )
            else:
                payload = {
                    "type": "evidence", "kind": COMMISSION,
                    "accused": accused, "detector": self.node_id,
                    "detected_at": self.sim.now, "support": [],
                    "nonce": k * 1_000 + i,
                }
                envelope = AuthenticatedStatement(
                    statement=payload,
                    signature=self.system.directory.forge(self.node_id,
                                                          payload),
                )
                bogus = Evidence(
                    kind=COMMISSION, accused=accused, detector=self.node_id,
                    detected_at=self.sim.now, statements=(),
                    envelope=envelope,
                )
            self._broadcast(("evidence", bogus), bogus.wire_bits(),
                            exclude=None)

    # ---------------------------------------------------------- heartbeats

    def _node_alive(self, node: str) -> bool:
        """Control-plane liveness: heartbeat within the last ~3 periods."""
        last = self._last_heartbeat.get(node)
        return (last is not None
                and self.sim.now - last <= 3 * self.period)

    def _emit_heartbeat(self, k: int) -> None:
        """Flooded once-per-period life signal (tiny CONTROL frames).

        Blame attribution needs to know whether a charged node is alive on
        the control plane: a live endpoint of a dead link must not be
        convicted as a dead node. Crashed nodes stop heartbeating;
        compromised ones may keep beating to look alive, which only buys
        them the single-adjacency excuse — total omission breaks several
        adjacencies and is attributed regardless.

        Only the origin emits here (``on_period_start`` already skipped a
        crashed node); receivers mark and re-flood inside the hop
        runtime's heartbeat batch.
        """
        self._heartbeats_seen.add((self.node_id, k))
        # Vectorised fan-out: one heap event per distinct arrival time,
        # no Message objects.
        self._hops.flood_heartbeat(self, self.node_id, k, None)

    # ----------------------------------------------------------- control

    def _on_control(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, tuple):
            return
        if message.dst != self.node_id:
            next_hop = self.system.next_hop_static(self.node_id, message.dst)
            if next_hop:
                self._hops.send(self.node_id, next_hop, message)
            return
        if payload[0] == "fetch_req":
            _, copy, base, k, requester = payload
            self._handle_fetch_request(copy, base, k, requester)
        elif payload[0] == "fetch_resp":
            _, copy, base, k, stmt = payload
            self._handle_fetch_response(copy, base, k, stmt)
        elif payload[0] == "state_req":
            _, instance, requester = payload
            self._handle_state_request(instance, requester)

    # -------------------------------------------------------- mode switches

    def _implicate(self, accused: str, evidence_time: int) -> None:
        pending = self.switcher.on_implicated(accused, evidence_time,
                                              self.sim.now)
        if pending is None:
            return
        self.system.trace.record(ModeSwitchStarted(
            time=self.sim.now, node=self.node_id,
            from_mode=self.plan.mode, to_mode=pending.plan.mode,
            boundary=pending.at,
        ))
        # Confusion window: from now until well past the boundary, plans
        # across the fleet may disagree and migrated instances may still be
        # waiting for state — omission/timing judgements would implicate
        # innocents. The settling term covers worst-case state transfer.
        self.suppress_until = max(
            self.suppress_until,
            pending.at + SUPPRESS_PERIODS * self.period
            + self.system.budget.settling_us,
        )
        self.sim.call_at(pending.at, self._adopt_current_target)

    def _adopt_current_target(self) -> None:
        if self.node.crashed:
            return
        target = self.system.strategy.plan_for(
            self.switcher.fault_set.snapshot())
        if target.mode == self.plan.mode:
            return
        self._apply_plan(target)

    def _apply_plan(self, new_plan: Plan) -> None:
        old_plan = self.plan
        faulty = set(self.switcher.fault_set.snapshot())
        transition = compute_transition(self.node_id, old_plan, new_plan,
                                        faulty)
        self.plan = new_plan
        self.program = self._program_of(new_plan)
        self.switcher.adopt(new_plan)
        self.demoted.clear()
        self._investigations.clear()
        # Re-evaluate plan-dependent evidence under the new plan. Soft
        # rejects were un-marked by the log, so retries go back through
        # the dedup gate — it filters copies queued from several
        # neighbours, which would otherwise be double-accepted here.
        pending_retry, self._retry_evidence = self._retry_evidence, []
        for evidence in pending_retry:
            self.sim.call_after(
                1, lambda ev=evidence: self._retry_soft_rejected(ev))
        self.suppress_until = max(
            self.suppress_until,
            self.sim.now + SUPPRESS_PERIODS * self.period
            + self.system.budget.settling_us,
        )
        # Old-plan charges describe the old regime; restart blame fresh
        # and refuse declarations from before the confusion window ends.
        self.blame.reset_charges()
        self._blame_cutoff = self.suppress_until
        for fetch in transition.fetches:
            self.pending_state.add(fetch.instance)
            if fetch.source is None:
                self._rebuild_state(fetch.instance, fetch.bits)
            else:
                self._request_state(fetch.instance, fetch.source, fetch.bits)
        # Record criticality shedding once, from a single designated node
        # (all correct nodes shed identically; one record per task is
        # enough for the analysis layer).
        if self.node_id == min(self.system.topology.nodes):
            previously_shed = set(old_plan.shed_tasks(self.system.workload))
            for task in new_plan.shed_tasks(self.system.workload):
                if task in previously_shed:
                    continue
                self.system.trace.record(TaskShed(
                    time=self.sim.now, task=task,
                    criticality=self.system.workload.tasks[task]
                    .criticality.value,
                    mode=new_plan.mode,
                ))
        self.system.trace.record(ModeSwitchCompleted(
            time=self.sim.now, node=self.node_id, mode=new_plan.mode,
        ))

    def _rebuild_state(self, instance: str, bits: int) -> None:
        duration = max(1, int(bits / REBUILD_BITS_PER_US))
        if self.node.crashed:
            return
        self.node.execute(
            self.sim, duration,
            callback=lambda: self.pending_state.discard(instance),
            lane="fg",
        )

    def _request_state(self, instance: str, source: str, bits: int) -> None:
        request = Message(
            src=self.node_id, dst=source, kind=MessageKind.CONTROL,
            payload=("state_req", instance, self.node_id),
            size_bits=CONTROL_BITS,
        )
        self.system.send_routed(self, request, self.plan)
        # Fallback: rebuild locally if the source never answers.
        deadline = self.sim.now + STATE_TIMEOUT_PERIODS * self.period
        self.sim.call_at(deadline, lambda: (
            self._rebuild_state(instance, bits)
            if instance in self.pending_state and not self.node.crashed
            else None
        ))

    def _handle_state_request(self, instance: str, requester: str) -> None:
        if self.behavior.suppresses_detection() and self.node.compromised:
            return
        task = self.plan.augmented.tasks.get(instance)
        bits = task.state_bits if task else 65536
        response = Message(
            src=self.node_id, dst=requester, kind=MessageKind.STATE,
            payload=("state_payload", instance), size_bits=max(bits, 1),
        )
        self.system.send_routed(self, response, self.plan)

    def _on_state(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, tuple) or payload[0] != "state_payload":
            return
        if message.dst != self.node_id:
            next_hop = self.system.next_hop_static(self.node_id, message.dst)
            if next_hop:
                self._hops.send(self.node_id, next_hop, message)
            return
        self.pending_state.discard(payload[1])

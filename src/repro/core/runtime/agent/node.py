"""The per-node BTR agent.

Each node runs one :class:`NodeAgent`. It holds the three runtime roles
— ``detector``, ``evidence``, ``switching`` — and itself does:

* **dispatch** — execute the active plan's schedule table each period
  (replicas compute; checkers compare, forward, and detect);
* **data plane** — sign, send, and forward flow messages hop-by-hop on the
  reserved DATA lanes;
* **heartbeats** — the origin's once-per-period life signal;
* **control routing** — every hop of a CONTROL or STATE message routes it
  around the plan's known-faulty nodes (:meth:`NodeAgent._route`).

A compromised node's agent consults its installed
:class:`~repro.faults.behaviors.FaultBehavior` at every output decision
point; its resources stay enforced by the substrate.

What a node does under a plan is fixed by the plan, so the agent derives
none of it per event: ``self.program`` is the node's compiled
:class:`~repro.core.runtime.program.NodeProgram` under ``self.plan``, and
the dispatch, data-plane and detection paths are table reads. Only the
cold paths (evidence, investigations, mode switches) still parse names.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from ....crypto.authenticator import AuthenticatedStatement
from ....faults.behaviors import FaultBehavior
from ....net.routing import RoutingError
from ....sim.message import Message, MessageKind
from ....sim.trace import (
    FaultInjected,
    MessageDropped,
    OutputProduced,
    TaskExecuted,
)
from ....workload.task import compute_output, sensor_reading
from ...detector.checker import (
    build_forward_statement,
    build_output_statement,
    run_check,
)
from ...evidence.records import COMMISSION
from ...planner.plan import Plan
from ..program import Member, NodeProgram, Send, node_program
from .detection import Detector
from .evidence import EvidenceEndpoint
from .switching import ModeSwitching


class NodeAgent:
    """Runtime state machine for one node."""

    def __init__(self, system, node) -> None:
        self.node = node
        self.node_id = node.node_id
        #: The run's simulator and the workload period: agents live for
        #: one run, so both are plain attributes.
        self.sim = system.sim
        self.period = system.workload.period
        # The collaborators the agent and its roles use, not the system
        # itself: the system holds its agents, so an agent pointing back
        # up would tie every finished run into a reference cycle.
        self.trace = system.trace
        self.directory = system.directory
        self.metrics = system.run_metrics
        self.router = system.topology.router
        self.topology = system.topology
        self.strategy = system.strategy
        self.workload = system.workload
        self.config = system.config
        #: The run's hop runtime: every send crosses a link through it
        #: (unicast or vectorised fan-out). Dropped by :meth:`release`.
        self._hops = system.batch_runtime
        self.behavior: FaultBehavior = FaultBehavior()
        self.install(system.strategy.nominal)
        #: origin -> time of last flooded heartbeat (liveness signal for
        #: the link-vs-node disambiguation in blame attribution).
        self._last_heartbeat: Dict[str, int] = {}
        self._heartbeats_seen: Set[Tuple[str, int]] = set()
        #: (flow_copy, period) -> received statement.
        self.inbox: Dict[Tuple[str, int], AuthenticatedStatement] = {}
        #: Signature cache: one statement per (logical flow, period).
        self._sign_cache: Dict[Tuple[str, int], AuthenticatedStatement] = {}
        self.switching = ModeSwitching(self, system.budget)
        self.evidence = EvidenceEndpoint(self, system.budget)
        self.detector = Detector(self)

    def install(self, plan: Plan) -> None:
        """Run under ``plan`` from now on (construction, mode switches)."""
        self.plan = plan
        #: This node's compiled tables under :attr:`plan`.
        self.program: NodeProgram = node_program(
            plan, self.node_id, self.topology.endpoint_map,
            self.config.f + 1)

    def release(self) -> None:
        """The run is over: drop the pointers that are two-way only while
        it runs — the hop runtime (whose emission plans hold this agent)
        and each role's pointer back up to this agent. What the run left
        behind (plan, program, inbox, liveness stamps, fault set) stays
        readable."""
        self._hops = None
        self.switching.release()
        self.evidence.release()
        self.detector.release()

    def _local_offset(self, k: int) -> int:
        """Period-relative time by this node's *local* clock — what the
        node can honestly attest in a signed statement. Correct nodes stay
        within the sync bound of true time; rogue clocks do not."""
        return self.node.clock.read(self.sim.now) - k * self.period

    # ------------------------------------------------------- fault injection

    def compromise(self, behavior: FaultBehavior) -> None:
        self.behavior = behavior
        self.node.compromised = True
        behavior.on_activate(self)
        self.trace.record(FaultInjected(
            time=self.sim.now, node=self.node_id, fault_kind=behavior.kind,
        ))

    # ------------------------------------------------------------ period tick

    def on_period_start(self, k: int) -> None:
        if self.node.crashed:
            return
        self._emit_sources(k)
        self._schedule_exec_groups(k, k * self.period)
        self.detector.on_period_start(k)
        self._emit_heartbeat(k)
        if self.behavior.fabricates_evidence():
            self.evidence.flood_bogus(k)

    # --------------------------------------------------------------- sources

    def _emit_sources(self, k: int) -> None:
        sources = self.program.sources
        if not sources:
            return
        # Emit in the augmented graph's flow order — the schedule
        # synthesizer serialized the source lanes in exactly this order,
        # so any other order would reshuffle lane queueing and break the
        # timetable (a small reading queued behind a large one misses its
        # consumer's slot). Build every frame's payload and sign the
        # uncached ones in that order, then send the copies in the same
        # order; signing schedules nothing, so the two passes are
        # trace-identical to sign-then-send per flow.
        emissions = []
        cache = self._sign_cache
        claimed_send_offset = self.behavior.claimed_send_offset
        actual_offset = self._local_offset(k)
        for emission in sources:
            value = sensor_reading(emission.source, k)
            send_offset = claimed_send_offset(actual_offset, 0)
            key = (emission.flow, k, value)
            emissions.append((emission.send, key))
            if key not in cache:
                payload = build_forward_statement(
                    flow=emission.flow, period=k, value=value,
                    send_offset=send_offset,
                )
                cache[key] = AuthenticatedStatement.make(
                    self.directory, self.node_id, payload,
                    emission.template.canonical(payload))
        for send, key in emissions:
            if send is not None:
                self._send_copy(send, cache[key], k)

    # ------------------------------------------------------------- execution

    def _schedule_exec_groups(self, k: int, period_start: int) -> None:
        """Execution timers: one heap event per distinct slot finish
        time."""
        pending = self.switching.pending_state
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
        pending = self.switching.pending_state
        trace = self.trace
        for instance in instances:
            # Looked up at execution time: a group scheduled under the
            # previous plan executes the current plan's member, or nothing
            # if the instance moved away.
            member = self.program.members.get(instance)
            if self.node.crashed or instance in pending or member is None:
                continue
            trace.record_row(self.sim.now, (
                TaskExecuted, self.node_id, instance, k, member.duration))
            if member.is_checker:
                self._run_checker(member, k)
            else:
                self._run_replica(member, k)

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
            self.directory, self.node_id, payload,
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
        detector = self.detector
        demoted = detector.demoted
        expected = member.expected
        if demoted:
            # Demoted replicas lose fast-path priority: their
            # unsubstantiated values are only used when nothing better
            # arrived. (Stable: index order survives within each class.)
            expected = sorted(expected, key=lambda inst: inst in demoted)
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
                    detector.audit_forwarder(audit, k)

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
            self.evidence.emit(
                COMMISSION, host,
                [stmt] + [inbox[(copy, k)] for copy in member.inputs])
        for suspect in outcome.investigate:
            detector.start_investigation(suspect, base, k)

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
                        self.directory, self.node_id, payload,
                        template.canonical(payload))
                if send is not None:
                    self._send_copy(send, stmt, k)

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
            self.evidence.on_message(message)
        elif message.dst != self.node_id:
            self._route(message)  # control or state traffic in transit
        elif kind == MessageKind.CONTROL and isinstance(message.payload,
                                                        tuple):
            tag, *fields = message.payload
            if tag == "fetch_req":
                self.detector.handle_fetch_request(*fields)
            elif tag == "fetch_resp":
                self.detector.handle_fetch_response(*fields)
            elif tag == "state_req":
                self.switching.handle_state_request(*fields)
        elif kind == MessageKind.STATE:
            self.switching.on_state(message.payload)

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
        if not stmt.valid(self.directory):
            return  # unauthenticated data is ignored outright
        self.inbox[(flow_copy, k)] = stmt
        self.detector.judge_timing(flow_copy, stmt, k, at)
        consumed = self.program.consumed.get(flow_copy)
        if consumed is not None and consumed.output is not None:
            # An actuator command (audit copies to the sink host are
            # not commands).
            sink, flow, criticality, deadline = consumed.output
            self.trace.record(OutputProduced(
                time=at, sink=sink, flow=flow, period_index=k,
                value=stmt.statement.get("value"),
                deadline=k * self.period + (deadline or self.period),
                criticality=criticality,
            ))

    def send_control(self, dst: str, kind: MessageKind, payload: tuple,
                     bits: int) -> None:
        """Send a CONTROL or STATE message from this node."""
        self._route(Message(self.node_id, dst, kind, payload, bits))

    def _route(self, message: Message) -> None:
        """One hop of a CONTROL or STATE message — from its origin or any
        later hop — on a route that avoids the plan's faulty nodes."""
        if message.dst == self.node_id:
            self.sim.call_after(1, partial(self._deliver_local, message))
            return
        try:
            path = self.router.route(self.node_id, message.dst,
                                     excluding=self.plan.pattern)
        except RoutingError:
            # No route avoiding the faulty set: the plan has partitioned
            # the sender from the destination. Count it — a silent drop
            # here looks exactly like an omission fault downstream.
            self.metrics.inc("messages_dropped", reason="no_route")
            self.trace.record(MessageDropped(
                time=self.sim.now, src=self.node_id, dst=message.dst,
                kind=message.kind.value, reason="no_route",
            ))
            return
        # The route joins two distinct nodes, so it has a next hop.
        self._hops.send(self.node_id, path[1], message)

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

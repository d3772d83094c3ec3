"""The online fault detector: the first of a node's three runtime roles.

:class:`Detector` judges what its node observes — claimed send times,
missing arrivals (excused when the producer was starved upstream),
forwarded values against the replicas' audit copies — and runs the
equivocation investigations a checker starts, handing every accusation
to the evidence endpoint. It owns the demoted replicas and the open
investigations; both describe the current plan (:meth:`reset`).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Set, Tuple

from ....crypto.authenticator import AuthenticatedStatement
from ....sim.message import CONTROL_BITS, MessageKind
from ....sim.trace import PathDeclared
from ...detector.checker import audit_forward
from ...detector.omission import OMISSION_GRACE_US
from ...detector.timing import (
    DEFAULT_TIMING,
    SELF_INCRIMINATING,
    SUSPICIOUS_ARRIVAL,
)
from ...evidence.records import (
    EQUIVOCATION,
    FORWARD_MISMATCH,
    TIMING,
    make_declaration,
)
from ...planner import naming
from ..program import Audit, Consumed


class Detector:
    """One node's detection duties."""

    def __init__(self, agent) -> None:
        self.agent = agent
        #: Replicas that failed to substantiate their inputs: demoted from
        #: the forward fast path until the next mode change.
        self.demoted: Set[str] = set()
        #: (suspect instance, period) -> flow copies still unsubstantiated.
        self._investigations: Dict[Tuple[str, int], Set[str]] = {}

    def reset(self) -> None:
        """Forget the previous plan's suspicions (a mode switch)."""
        self.demoted.clear()
        self._investigations.clear()

    def release(self) -> None:
        """The run is over: drop the pointer back up to the agent."""
        self.agent = None

    # ---------------------------------------------------------------- timing

    def judge_timing(self, flow_copy: str, stmt: AuthenticatedStatement,
                     k: int, at: int) -> None:
        agent = self.agent
        if agent.behavior.suppresses_detection():
            return
        if at < agent.switching.suppress_until:
            return  # transition confusion: schedules are shifting
        offset = stmt.statement.get("send_offset")
        if offset is None:
            return
        period = agent.period
        slack = DEFAULT_TIMING.slack_us
        if not -slack <= offset <= period + slack:
            # Grossly invalid claimed send time: self-incriminating,
            # plan-independent — transferable evidence.
            agent.evidence.emit(TIMING, stmt.signer, [stmt])
            return
        verdict = DEFAULT_TIMING.judge(
            agent.plan, stmt.statement.get("flow", flow_copy), flow_copy,
            offset, at - k * period,
        )
        if verdict in (SELF_INCRIMINATING, SUSPICIOUS_ARRIVAL):
            # Wrong slot within the period: real, but only provable
            # relative to a plan — route through path declarations.
            self.declare_path(flow_copy, k)

    # -------------------------------------------------------------- omission

    def on_period_start(self, k: int) -> None:
        """Schedule period ``k``'s omission checks, then its sink audits:
        at the period's end a sink host audits every actuator command —
        the one edge no downstream checker covers (§4.1)."""
        agent = self.agent
        if agent.behavior.suppresses_detection():
            return
        period_start = k * agent.period
        wait = DEFAULT_TIMING.arrival_slack_us + OMISSION_GRACE_US
        call_at = agent.sim.call_at
        check = self._check_arrival_group
        for arrival, copies in agent.program.arrival_groups:
            call_at(period_start + arrival + wait, partial(check, copies, k))
        audits = agent.program.sink_audits
        if audits:
            call_at(period_start + agent.period - 1,
                    partial(self._audit_sink_outputs, audits, k))

    def _check_arrival_group(self, copies, k: int) -> None:
        # One heap pop stands for len(copies) scheduled checks.
        self.agent.sim.events_executed += len(copies) - 1
        for flow_copy in copies:
            self._check_arrival(flow_copy, k)

    def _check_arrival(self, flow_copy: str, k: int) -> None:
        agent = self.agent
        if agent.node.crashed or (flow_copy, k) in agent.inbox:
            return
        if agent.sim.now < agent.switching.suppress_until:
            return
        # Read at check time: a check scheduled under the previous plan
        # judges by the current one, and a copy this node no longer
        # consumes is no longer its expectation.
        consumed = agent.program.consumed.get(flow_copy)
        if consumed is None or self._producer_starved(consumed, k):
            # The producer provably had nothing to send: an upstream
            # outage starved it. Blame belongs upstream (where the broken
            # @c edge is declared), not on the starved innocent.
            return
        self.declare_path(flow_copy, k)

    def _producer_starved(self, consumed: Consumed, k: int) -> bool:
        """Was the copy's producer a replica starved by an upstream
        outage this period? (:func:`repro.core.runtime.program._starved_by`
        names the edges whose absence here proves it.)"""
        inbox = self.agent.inbox
        for copy in consumed.starved_by:
            stmt = inbox.get((copy, k))
            if stmt is None or stmt.statement.get("reconstructed"):
                return True
        return False

    def declare_path(self, flow_copy: str, k: int) -> None:
        agent = self.agent
        route = agent.plan.routes.get(flow_copy)
        if not route:
            return
        if set(route) & agent.switching.switcher.fault_set.snapshot():
            return  # known fault on the path; the switch is already coming
        now = agent.sim.now
        flow = naming.base_flow(flow_copy)
        agent.trace.record(PathDeclared(
            time=now, declarer=agent.node_id, path=tuple(route),
            flow=flow, period_index=k,
        ))
        agent.evidence.declare(make_declaration(
            agent.directory, agent.node_id, route, flow, k, now))

    # ---------------------------------------------------------------- audits

    def audit_forwarder(self, audit: Audit, k: int) -> None:
        """Accuse ``audit.src``'s checker if the value it forwarded this
        period is one none of the replicas' audit copies carries."""
        agent = self.agent
        if audit.src not in agent.plan.workload.tasks:
            return  # source-host (or since-shed) flows have no audit
        inbox = agent.inbox
        fwd = inbox.get((audit.forwarded, k))
        if fwd is None:
            return
        audits = {}
        for copy, replica in audit.copies:
            stmt = inbox.get((copy, k))
            if stmt is not None:
                audits[replica] = stmt
        if audit_forward(fwd, audits, audit.expected):
            accused = agent.plan.assignment.get(audit.checker)
            if accused is not None:
                agent.evidence.emit(
                    FORWARD_MISMATCH, accused,
                    [fwd] + [audits[i] for i in audit.expected],
                )

    def _audit_sink_outputs(self, audits, k: int) -> None:
        agent = self.agent
        if (agent.node.crashed
                or agent.sim.now < agent.switching.suppress_until):
            return
        for audit in audits:
            self.audit_forwarder(audit, k)

    # ---------------------------------------------------- investigations

    def start_investigation(self, suspect_instance: str, base: str,
                            k: int) -> None:
        agent = self.agent
        plan = agent.plan
        host = plan.assignment.get(suspect_instance)
        if host is None or (suspect_instance, k) in self._investigations:
            return
        index = naming.replica_index(suspect_instance)
        outstanding: Set[str] = set()
        for flow in plan.workload.inputs_of(base):
            copy = naming.flow_copy_name(flow.name, f"r{index}")
            outstanding.add(copy)
            agent.send_control(host, MessageKind.CONTROL, (
                "fetch_req", copy, naming.base_flow(flow.name), k,
                agent.node_id), CONTROL_BITS)
        if not outstanding:
            return
        self._investigations[(suspect_instance, k)] = outstanding
        agent.sim.call_after(
            agent.period,
            partial(self._investigation_timeout, suspect_instance, base, k),
        )

    def _investigation_timeout(self, suspect: str, base: str, k: int
                               ) -> None:
        """A replica that cannot substantiate its inputs within one period
        is demoted from the fast path, and the path to its host is declared
        problematic — a correct replica always answers, so persistent
        silence converges on its host via blame attribution."""
        outstanding = self._investigations.pop((suspect, k), None)
        if not outstanding or self.agent.node.crashed:
            return
        self.demoted.add(suspect)
        index = naming.replica_index(suspect)
        if index is not None:
            self.declare_path(naming.replica_output_flow(base, index), k)

    def handle_fetch_request(self, copy: str, base: str, k: int,
                             requester: str) -> None:
        agent = self.agent
        if agent.behavior.suppresses_detection():
            return  # compromised nodes ignore investigation duties
        stmt = agent.inbox.get((copy, k))
        if stmt is not None:
            agent.send_control(requester, MessageKind.CONTROL,
                               ("fetch_resp", copy, base, k, stmt),
                               CONTROL_BITS + stmt.wire_bits())

    def handle_fetch_response(self, copy: str, base: str, k: int,
                              stmt: AuthenticatedStatement) -> None:
        agent = self.agent
        if not stmt.valid(agent.directory):
            return
        for key, outstanding in list(self._investigations.items()):
            outstanding.discard(copy)
            if not outstanding:
                del self._investigations[key]
        mine = agent.inbox.get((naming.flow_copy_name(base, "c"), k))
        if mine is None:
            return
        if (mine.signer == stmt.signer
                and mine.statement.get("flow") == stmt.statement.get("flow")
                and mine.statement.get("period") == stmt.statement.get("period")
                and mine.statement.get("value") != stmt.statement.get("value")):
            agent.evidence.emit(EQUIVOCATION, stmt.signer, [mine, stmt])

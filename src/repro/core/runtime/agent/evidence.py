"""The evidence endpoint: the second of a node's three runtime roles (§4.3).

:class:`EvidenceEndpoint` emits, receives, endorses and floods the
control records on the EVIDENCE lanes — fault evidence and path
declarations — with the per-sender quota, slander accounting,
attribution support and soft-reject retries that go with them. It owns
the evidence log and its validator, the blame tracker, the blame cutoff
and staleness horizon, the quota buckets and the records to retry.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from ....crypto.authenticator import AuthenticatedStatement
from ....crypto.costs import VERIFY_US
from ....crypto.signatures import Signature
from ....sim.message import CONTROL_BITS, Message, MessageKind
from ....sim.trace import EvidenceAccepted, EvidenceGenerated, EvidenceRejected
from ...detector.omission import (
    DEFAULT_MIN_DECLARERS,
    DEFAULT_SLOT_THRESHOLD,
    BlameTracker,
    slot_key,
)
from ...evidence.distributor import EvidenceLog
from ...evidence.records import (
    ATTRIBUTION,
    COMMISSION,
    Evidence,
    EvidenceValidator,
)
from ...modes.switcher import SUPPRESS_PERIODS
from ...planner import naming

#: Max control-plane records a node will *verify* per sender per period.
#: The CPU analogue of the reserved-bandwidth defence: a flooder can fill
#: its own link lane, but it cannot spend more than this slice of anyone's
#: control CPU (§4.3's DoS resistance).
EVIDENCE_QUOTA_PER_SENDER = 8


class EvidenceEndpoint:
    """One node's end of the evidence plane."""

    def __init__(self, agent, budget) -> None:
        self.agent = agent
        period = agent.period
        settling = budget.settling_us
        #: Declarations older than this describe a previous plan regime
        #: (pre-switch cascades); neither local blame accounting nor
        #: attribution validation may use them.
        self._blame_cutoff = 0
        #: Evidence older than this on receipt is dropped outright: the
        #: anti-backdating half of the freshness defence.
        self._evidence_staleness = (4 * period + budget.distribution_us
                                    + settling)
        self.validator = EvidenceValidator(
            agent.directory,
            roster_lookup=self._roster_lookup,
            period=period,
            # Declarations may support an attribution only if made within
            # this window before its detected_at (accumulation +
            # confusion).
            attribution_freshness_us=(
                (DEFAULT_SLOT_THRESHOLD + SUPPRESS_PERIODS + 2) * period
                + settling),
        )
        self.log = EvidenceLog(agent.node_id, self.validator,
                               metrics=agent.metrics)
        self.blame = BlameTracker(liveness=agent._node_alive,
                                  metrics=agent.metrics)
        #: Plan-dependent evidence rejected mid-switch; retried after the
        #: next mode change, when the plans should agree again.
        self._retry_evidence: List[Evidence] = []
        #: (sender, record class, period) -> control records whose
        #: verification this node has already paid for (§4.3).
        self._ctrl_quota: Dict[Tuple[str, str, int], int] = {}

    def release(self) -> None:
        """The run is over: drop every pointer back up to the agent —
        its own, and the two callbacks bound to the agent or to this
        endpoint (the validator's roster lookup, the blame tracker's
        liveness oracle)."""
        self.agent = None
        self.validator.roster_lookup = None
        self.blame.liveness = None

    def _roster_lookup(self, base: str) -> Optional[dict]:
        roster = {
            inst: host for inst, host in self.agent.plan.assignment.items()
            if naming.base_task(inst) == base
        }
        return roster or None

    # ------------------------------------------------------------- emitting

    def emit(self, kind: str, accused: str,
             statements: List[AuthenticatedStatement]) -> None:
        """Accuse ``accused`` in a record this node signs."""
        agent = self.agent
        if agent.behavior.suppresses_detection():
            return
        if accused in agent.switching.switcher.fault_set:
            return  # already known faulty; don't re-litigate
        now = agent.sim.now
        evidence = Evidence.make(
            agent.directory, kind, accused, agent.node_id,
            detected_at=now, statements=statements,
        )
        agent.trace.record(EvidenceGenerated(
            time=now, detector_node=agent.node_id,
            accused_node=accused, fault_kind=kind,
            evidence_id=int(evidence.evidence_id[:8], 16),
        ))
        if self.log.note_evidence(evidence):
            self._handle_evidence(evidence, None)

    def declare(self, decl: AuthenticatedStatement) -> None:
        """Evaluate a path declaration this node just signed."""
        if self.log.note_declaration(decl):
            self._handle_declaration(decl, None)

    # ----------------------------------------------------------- evaluating

    def _handle_evidence(self, evidence: Evidence,
                         from_neighbor: Optional[str],
                         endorsement: Optional[Signature] = None) -> None:
        """Evaluate an already-noted record (dedup happens at receipt)."""
        agent = self.agent
        now = agent.sim.now
        if now - evidence.detected_at > self._evidence_staleness:
            # Too old to act on: either a backdated harvest attempt or a
            # record that crawled here long after its recovery concluded.
            return
        trace = agent.trace
        decision = self.log.evaluate_evidence(evidence)
        reason = decision.reason
        if reason in ("bad_signature", "unsupported"):
            trace.record(EvidenceRejected(
                time=now, node=agent.node_id,
                claimed_signer=evidence.detector, reason=reason,
            ))
        # §4.3 endorsement rule: a badly signed record's claimed author is
        # unauthenticated, but whoever *endorsed and distributed* it is
        # not — and correct nodes validate before forwarding, so endorsing
        # junk is slander by the endorser.
        if (reason == "bad_signature" and endorsement is not None
                and agent.directory.verify(
                    {"type": "endorse", "ref": evidence.evidence_id},
                    endorsement)):
            implicated = self.log.count_slander(endorsement.signer)
            if implicated:
                agent.switching.implicate(implicated, now)
        if decision.accept:
            trace.record(EvidenceAccepted(
                time=now, node=agent.node_id,
                accused_node=evidence.accused,
                evidence_id=int(evidence.evidence_id[:8], 16),
            ))
        if reason == "unsupported_soft":
            self._retry_evidence.append(evidence)
        if decision.implicate:
            agent.switching.implicate(decision.implicate,
                                      evidence.detected_at)
        if decision.forward:
            self._broadcast(("evidence", evidence), evidence.wire_bits(),
                            exclude=from_neighbor)

    def _retry_soft_rejected(self, evidence: Evidence) -> None:
        """Re-submit a plan-dependent record after a mode switch."""
        if self.log.note_evidence(evidence):
            self.agent.metrics.inc("evidence_retries")
            self._handle_evidence(evidence, None)

    def _handle_declaration(self, decl: AuthenticatedStatement,
                            from_neighbor: Optional[str]) -> None:
        """Evaluate an already-noted declaration."""
        decision = self.log.evaluate_declaration(decl)
        if not decision.accept:
            return
        blame = self.blame
        if decl.statement.get("declared_at", 0) >= self._blame_cutoff:
            blame.add_declaration(decl)
        for accused in blame.newly_attributable():
            if accused in self.agent.switching.switcher.fault_set:
                continue
            support = self._minimal_attribution_support(accused)
            if support is not None:
                self.emit(ATTRIBUTION, accused, support)
            else:
                # Not enough fresh corroboration yet: let later
                # declarations retry instead of leaving the mark sticky.
                blame.attributed.discard(accused)
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
        # Validation counts distinct slots, so keep one declaration per
        # slot (the first).
        unique: Dict[tuple, AuthenticatedStatement] = {}
        for decl in self.blame.supporting_declarations(
                accused, self.log.declarations):
            # Stale (pre-cutoff) declarations describe the previous regime;
            # validators reject bundles containing any, so never pick them.
            if decl.statement.get("declared_at", 0) >= self._blame_cutoff:
                unique.setdefault(slot_key(decl), decl)
        by_declarer: Dict[str, List[AuthenticatedStatement]] = {}
        for decl in unique.values():
            by_declarer.setdefault(decl.signer, []).append(decl)
        if len(by_declarer) < DEFAULT_MIN_DECLARERS:
            return None
        # One slot from each declarer first (corroboration), then fill up
        # to the slot threshold.
        support = [by_declarer[signer][0]
                   for signer in sorted(by_declarer)[:DEFAULT_MIN_DECLARERS]]
        for decl in unique.values():
            if len(support) >= DEFAULT_SLOT_THRESHOLD:
                break
            if decl not in support:
                support.append(decl)
        if len(support) < DEFAULT_SLOT_THRESHOLD:
            return None
        return support

    # ------------------------------------------------------------ flooding

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
        agent = self.agent
        if agent.node.crashed:
            return
        record = payload[1]
        ref = (record.evidence_id if isinstance(record, Evidence)
               else record.payload_digest())
        endorsement = agent.directory.sign(
            agent.node_id, {"type": "endorse", "ref": ref})
        # One frozen envelope shared by every per-neighbour copy: the
        # record is signed and immutable, so receivers can safely alias
        # it, and N neighbours cost one tuple build instead of N.
        envelope = payload + (endorsement,)
        agent._hops.flood_messages(agent, MessageKind.EVIDENCE,
                                   envelope, bits, exclude)

    def on_message(self, message: Message) -> None:
        """Receive one flooded copy of a record from a neighbour."""
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
        if tag == "evidence" and isinstance(record, Evidence):
            note = self.log.note_evidence
            cost = VERIFY_US * (2 + len(record.statements))
            handle = partial(self._handle_evidence, endorsement=endorsement)
        elif tag == "declaration" and isinstance(record,
                                                 AuthenticatedStatement):
            note = self.log.note_declaration
            cost = VERIFY_US
            handle = self._handle_declaration
        else:
            return
        # Quota *before* the dedup mark: a record dropped for quota must
        # not be remembered as seen, or the copies arriving from other
        # neighbours (whose quota buckets are separate) would be discarded
        # and the record lost fleet-wide — during a declaration storm that
        # silently splits the fault sets. Senders dedup before forwarding,
        # so each sender charges each record to its bucket at most once.
        if self._take_ctrl_quota(src, tag) and note(record):
            agent = self.agent
            agent.node.execute(agent.sim, cost,
                               callback=partial(handle, record, src),
                               lane="ctrl")

    def _take_ctrl_quota(self, sender: str, tag: str) -> bool:
        """Per-sender, per-class verification quota: a flooding neighbour
        can fill its own reserved link lane, but it may not consume more
        than a fixed slice of this node's control CPU per period (§4.3).
        Bulk declarations and rare accusation evidence draw from separate
        buckets, so a declaration storm cannot crowd out an attribution."""
        key = (sender, tag, self.agent.sim.now // self.agent.period)
        spent = self._ctrl_quota.get(key, 0)
        if spent >= EVIDENCE_QUOTA_PER_SENDER:
            return False
        self._ctrl_quota[key] = spent + 1
        return True

    def flood_bogus(self, k: int) -> None:
        """This period's forged accusations from a node compromised by an
        :class:`~repro.faults.behaviors.EvidenceFloodFault`."""
        agent = self.agent
        behavior = agent.behavior
        directory = agent.directory
        node_id = agent.node_id
        now = agent.sim.now
        others = [n for n in agent.topology.node_ids()
                  if n != node_id]
        for i in range(behavior.records_per_period):
            accused = behavior.accused or others[(k + i) % len(others)]
            if behavior.proper_signatures:
                # Validly signed but unsupported: survives the cheap check,
                # dies in full validation, and counts against this signer.
                bogus = Evidence.make(directory, COMMISSION, accused, node_id,
                                      detected_at=now + i, statements=[])
            else:
                payload = {
                    "type": "evidence", "kind": COMMISSION,
                    "accused": accused, "detector": node_id,
                    "detected_at": now, "support": [],
                    "nonce": k * 1_000 + i,
                }
                envelope = AuthenticatedStatement(
                    statement=payload,
                    signature=directory.forge(node_id, payload),
                )
                bogus = Evidence(
                    kind=COMMISSION, accused=accused, detector=node_id,
                    detected_at=now, statements=(), envelope=envelope,
                )
            self._broadcast(("evidence", bogus), bogus.wire_bits(),
                            exclude=None)

    def new_regime(self, cutoff: int) -> None:
        """A mode switch: retry the soft rejects under the new plan (back
        through the dedup gate, which the log un-marked them from), and
        restart blame from declarations made at ``cutoff`` or later."""
        pending_retry, self._retry_evidence = self._retry_evidence, []
        for evidence in pending_retry:
            self.agent.sim.call_after(
                1, partial(self._retry_soft_rejected, evidence))
        self.blame.reset_charges()
        self._blame_cutoff = cutoff

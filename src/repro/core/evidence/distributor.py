"""Per-node evidence distribution state (§4.3).

Evidence spreads by constrained flooding on the statically reserved
EVIDENCE lanes: a node that receives a record it has not seen first runs the
*cheap check* (one signature verification — charged on the control CPU
lane), then full validation, and only then forwards the record to its
neighbours. Invalid records are dropped immediately and **counted against
the claimed signer**; a signer whose invalid count crosses a threshold is
itself treated as faulty (the paper: "invalid evidence can be counted as
evidence against the signer").

This module is pure decision logic — the runtime owns actual message
transmission and CPU charging — which keeps it unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ...crypto.authenticator import AuthenticatedStatement
from .records import Evidence, EvidenceValidator


#: Invalid records from one signer before the signer is deemed faulty.
DEFAULT_SLANDER_THRESHOLD = 3


@dataclass
class DistributionDecision:
    """What the runtime should do with an incoming record."""

    accept: bool
    forward: bool
    #: Node to add to the local fault set (accused, or a slanderer).
    implicate: Optional[str] = None
    reason: str = ""


class EvidenceLog:
    """One node's view of the evidence stream."""

    def __init__(self, node: str, validator: EvidenceValidator,
                 metrics=None) -> None:
        self.node = node
        self.validator = validator
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; verdicts
        #: are counted as ``evidence_verdicts{reason}`` when present.
        self.metrics = metrics
        self._seen: Set[str] = set()
        self.accepted: List[Evidence] = []
        self.invalid_counts: Dict[str, int] = {}
        self._declarations_seen: Set[str] = set()
        self.declarations: List[AuthenticatedStatement] = []

    def _count(self, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.inc("evidence_verdicts", reason=reason)

    # ------------------------------------------------------------ evidence

    def note_evidence(self, evidence: Evidence) -> bool:
        """Dedup gate: True iff this record is new to the node.

        This is a hash lookup, deliberately separated from
        :meth:`evaluate_evidence` so the runtime can drop duplicate copies
        (flooding delivers one per neighbour) *before* paying the
        control-lane CPU for validation.

        A record only *stays* seen once it reaches a terminal verdict
        (accepted / slander-counted / bad signature):
        :meth:`evaluate_evidence` un-marks ``unsupported_soft`` rejects,
        so the same record re-submitted after a mode switch — when the
        plans should agree again — is genuinely re-evaluated instead of
        bouncing off the dedup gate forever.
        """
        eid = evidence.evidence_id
        if eid in self._seen:
            return False
        self._seen.add(eid)
        return True

    def evaluate_evidence(self, evidence: Evidence) -> DistributionDecision:
        """Validate a (new) record and decide accept/forward/implicate."""
        eid = evidence.evidence_id
        if not self.validator.cheap_check(evidence):
            # Improperly signed: cheap reject; nothing attributable (the
            # "signer" field itself is unauthenticated here).
            self._seen.add(eid)
            self._count("bad_signature")
            return DistributionDecision(accept=False, forward=False,
                                        reason="bad_signature")
        if not self.validator.validate(evidence):
            if evidence.kind not in self.validator.OBJECTIVE_KINDS:
                # Plan-dependent kind: this node's current plan may simply
                # disagree with the detector's (mid-switch confusion). Not
                # slander, and *not a terminal verdict* — un-mark the
                # record so a retry after the next switch re-evaluates it.
                self._seen.discard(eid)
                self._count("unsupported_soft")
                return DistributionDecision(
                    accept=False, forward=False, reason="unsupported_soft",
                )
            # Properly signed but objectively unsupported: slander.
            self._seen.add(eid)
            self._count("unsupported")
            return DistributionDecision(
                accept=False, forward=False,
                implicate=self.count_slander(evidence.detector),
                reason="unsupported",
            )
        self._seen.add(eid)
        self._count("valid")
        self.accepted.append(evidence)
        return DistributionDecision(
            accept=True, forward=True, implicate=evidence.accused,
            reason="valid",
        )

    # --------------------------------------------------------- declarations

    def note_declaration(self, decl: AuthenticatedStatement) -> bool:
        """Dedup gate for declarations (cheap; see note_evidence)."""
        key = decl.payload_digest() + decl.signer
        if key in self._declarations_seen:
            return False
        self._declarations_seen.add(key)
        return True

    def evaluate_declaration(self, decl: AuthenticatedStatement
                             ) -> DistributionDecision:
        """Path declarations are signed but unproven; validate signature
        and structure, then forward."""
        if not decl.valid(self.validator.directory):
            return DistributionDecision(accept=False, forward=False,
                                        reason="bad_signature")
        stmt = decl.statement
        if stmt.get("type") != "path_problem" or not stmt.get("path"):
            return DistributionDecision(accept=False, forward=False,
                                        reason="malformed")
        self.declarations.append(decl)
        return DistributionDecision(accept=True, forward=True,
                                    reason="valid")

    def count_slander(self, signer: str) -> Optional[str]:
        """Charge one invalid record against ``signer``; returns the
        signer if it just crossed the implication threshold.

        Used for §4.3's endorsement rule: a node that *distributes* an
        improperly signed record endorsed it, and endorsing junk is
        attributable even when the junk's claimed author is not.
        """
        count = self.invalid_counts.get(signer, 0) + 1
        self.invalid_counts[signer] = count
        return signer if count >= DEFAULT_SLANDER_THRESHOLD else None

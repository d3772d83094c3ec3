"""Evidence records: transferable, independently verifiable fault proofs.

§4.2: "since there are no trusted nodes, the compromised nodes can try to
confuse the detector ... Therefore, it is necessary to generate evidence of
detected faults that other nodes can verify independently."

An :class:`Evidence` record is an accusation envelope signed by the detector
plus the supporting signed statements. Five kinds exist, with different
verification rules:

``commission``
    The accused replica's signed output statement plus the signed input
    statements the checker received. Verification *re-executes* the task
    (our task semantics are deterministic) and confirms the accused's value
    is wrong **for the inputs the accused itself attested to** (statements
    carry an input digest, so an equivocating upstream cannot get an honest
    replica convicted).

``equivocation``
    Two statements signed by the accused for the same (flow, period) with
    different values. Classic, self-contained proof.

``timing``
    A statement signed by the accused whose embedded send timestamp is
    *grossly* invalid — outside the period altogether. Gross violations are
    the only timing offenses turned into transferable evidence, because
    they are the only ones every correct node judges identically regardless
    of which plan it currently holds; subtler lateness (wrong slot within
    the period) is handled by path declarations. Validating against
    plan-specific slot windows would make acceptance depend on the
    validator's current mode, and nodes mid-switch would diverge — the
    "confusion" §4.4 warns about, made permanent.

``attribution``
    A bundle of signed path declarations that all implicate the accused
    (§4.2's omission handling: "If a node is on a large number of
    problematic paths, it may be possible to attribute the problem to that
    node"). Supporting declarations must be fresh for the validator's
    current plan regime.

``forward_mismatch``
    The accused (a checker host) signed a forwarded value that none of the
    task's replicas produced — provable from the forwarded statement plus
    the replicas' audit copies, given the current plan's roster.

Fabricated evidence is either improperly signed (rejected after one
signature check — the cheap reject the paper calls for) or properly signed
but unsupported (rejected after full validation and *counted against the
signer*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from ...crypto.authenticator import AuthenticatedStatement
from ...crypto.signatures import KeyDirectory
from ...workload.task import compute_output
from ..detector.checker import input_digest
from ..detector.omission import (
    DEFAULT_MIN_DECLARERS,
    DEFAULT_SLOT_THRESHOLD,
    slot_key,
)
from ..detector.timing import DEFAULT_TIMING

COMMISSION = "commission"
EQUIVOCATION = "equivocation"
TIMING = "timing"
ATTRIBUTION = "attribution"
FORWARD_MISMATCH = "forward_mismatch"

KINDS = (COMMISSION, EQUIVOCATION, TIMING, ATTRIBUTION, FORWARD_MISMATCH)


@dataclass(frozen=True)
class Evidence:
    """A signed accusation plus its supporting statements."""

    kind: str
    accused: str
    detector: str
    detected_at: int
    statements: Tuple[AuthenticatedStatement, ...]
    envelope: AuthenticatedStatement

    @property
    def evidence_id(self) -> str:
        return self.envelope.payload_digest()

    def wire_bits(self) -> int:
        return self.envelope.wire_bits() + sum(
            s.wire_bits() for s in self.statements
        )

    @classmethod
    def make(cls, directory: KeyDirectory, kind: str, accused: str,
             detector: str, detected_at: int,
             statements: Sequence[AuthenticatedStatement]) -> "Evidence":
        if kind not in KINDS:
            raise ValueError(f"unknown evidence kind {kind!r}")
        envelope_payload = {
            "type": "evidence",
            "kind": kind,
            "accused": accused,
            "detector": detector,
            "detected_at": detected_at,
            "support": [s.payload_digest() for s in statements],
        }
        envelope = AuthenticatedStatement.make(directory, detector,
                                               envelope_payload)
        return cls(kind=kind, accused=accused, detector=detector,
                   detected_at=detected_at, statements=tuple(statements),
                   envelope=envelope)


class EvidenceValidator:
    """Validates evidence records. Stateless; shared by all nodes.

    ``roster_lookup`` supplies the current plan's instance->host map for a
    task (forward-mismatch evidence needs it); ``period`` and the timing
    policy's send slack define the plan-independent gross-timing rule.
    """

    #: Kinds whose validation depends only on signatures and arithmetic —
    #: every correct node reaches the same verdict. A properly signed but
    #: unsupported record of these kinds is slander and counts against the
    #: signer. ATTRIBUTION is *not* objective: its supporting declarations
    #: must be fresh for the validator's current regime (see
    #: ``declaration_cutoff``), so mid-switch nodes can disagree.
    OBJECTIVE_KINDS = frozenset({COMMISSION, EQUIVOCATION, TIMING})

    def __init__(self, directory: KeyDirectory,
                 roster_lookup: Optional[Callable[[str], Optional[dict]]]
                 = None,
                 period: Optional[int] = None,
                 attribution_freshness_us: Optional[int] = None) -> None:
        self.directory = directory
        #: Maps a base task name to {instance: host node} under the current
        #: plan (replicas + checker) — needed for forward-mismatch evidence
        #: (which is therefore *plan-dependent*: see OBJECTIVE_KINDS).
        self.roster_lookup = roster_lookup
        #: Workload period: timing evidence is valid iff the signed send
        #: offset falls outside [-slack, period + slack].
        self.period = period
        #: Attributions must cite declarations made within this window
        #: *before their own detected_at* — a plan-independent freshness
        #: rule (every node reaches the same verdict at any time), so a
        #: record validated late (CPU queues, mid-switch) is not wrongly
        #: judged stale. Without it, an adversary could harvest a past
        #: recovery's cascade declarations into a valid-looking
        #: attribution of an innocent long after the fact; combined with
        #: the runtime's receipt-staleness check, a harvest must be
        #: executed during the storm itself, when the strict-dominance
        #: rule is protecting the bystanders.
        self.attribution_freshness_us = attribution_freshness_us

    # ------------------------------------------------------------- helpers

    def cheap_check(self, evidence: Evidence) -> bool:
        """The fast reject: one signature verification on the envelope plus
        structural sanity. §4.3: "there must be a way to quickly recognize
        and reject such cases"."""
        if evidence.kind not in KINDS:
            return False
        if not evidence.envelope.valid(self.directory):
            return False
        env = evidence.envelope.statement
        return (
            env.get("kind") == evidence.kind
            and env.get("accused") == evidence.accused
            and env.get("detector") == evidence.detector
            and env.get("detector") == evidence.envelope.signer
            and env.get("support") == [s.payload_digest()
                                       for s in evidence.statements]
        )

    def validate(self, evidence: Evidence) -> bool:
        """Full validation: cheap check + kind-specific proof checking."""
        if not self.cheap_check(evidence):
            return False
        if any(not s.valid(self.directory) for s in evidence.statements):
            return False
        handler = {
            COMMISSION: self._validate_commission,
            EQUIVOCATION: self._validate_equivocation,
            TIMING: self._validate_timing,
            ATTRIBUTION: self._validate_attribution,
            FORWARD_MISMATCH: self._validate_forward_mismatch,
        }[evidence.kind]
        return handler(evidence)

    # ------------------------------------------------------- kind-specific

    def _validate_commission(self, evidence: Evidence) -> bool:
        outputs = [s for s in evidence.statements
                   if s.statement.get("type") == "output"]
        inputs = [s for s in evidence.statements
                  if s.statement.get("type") == "fwd"]
        if len(outputs) != 1:
            return False
        output = outputs[0]
        if output.signer != evidence.accused:
            return False
        stmt = output.statement
        task = stmt.get("task")
        period = stmt.get("period")
        claimed_value = stmt.get("value")
        if task is None or period is None or claimed_value is None:
            return False
        # All inputs must belong to the same period.
        if any(s.statement.get("period") != period for s in inputs):
            return False
        values = [s.statement.get("value") for s in inputs]
        if any(v is None for v in values):
            return False
        # The accused's own attested input digest must match the inputs
        # supplied — otherwise an equivocating upstream could frame an
        # honest replica.
        if stmt.get("input_digest") != input_digest(values):
            return False
        correct = compute_output(task, period, values)
        return claimed_value != correct

    def _validate_equivocation(self, evidence: Evidence) -> bool:
        if len(evidence.statements) != 2:
            return False
        first, second = evidence.statements
        if first.signer != evidence.accused or second.signer != evidence.accused:
            return False
        a, b = first.statement, second.statement
        same_slot = (
            a.get("type") == b.get("type")
            and a.get("flow") == b.get("flow")
            and a.get("period") == b.get("period")
            and a.get("flow") is not None
            and a.get("period") is not None
        )
        return same_slot and a.get("value") != b.get("value")

    def _validate_timing(self, evidence: Evidence) -> bool:
        if len(evidence.statements) != 1:
            return False
        stmt = evidence.statements[0]
        if stmt.signer != evidence.accused:
            return False
        payload = stmt.statement
        offset = payload.get("send_offset")  # period-relative send time
        # Both statement shapes carry signed timestamps: "fwd" statements
        # name a flow, replica "output" statements name a task.
        subject = payload.get("flow") or payload.get("task")
        if offset is None or subject is None:
            return False
        if self.period is None:
            return False  # cannot judge timing without the period
        # Gross violation only: any offset inside the period could be
        # legitimate under *some* plan, and judging it against one plan
        # would make validation mode-dependent.
        slack = DEFAULT_TIMING.slack_us
        return not -slack <= offset <= self.period + slack

    def _validate_forward_mismatch(self, evidence: Evidence) -> bool:
        """The accused (a checker host) signed a forwarded value that none
        of the task's replicas produced. Requires the plan roster to confirm
        the output statements really come from that task's full replica
        set — at least one of which is correct, so the honest value is
        among them."""
        if self.roster_lookup is None:
            return False
        fwds = [s for s in evidence.statements
                if s.statement.get("type") == "fwd"]
        outputs = [s for s in evidence.statements
                   if s.statement.get("type") == "output"]
        if len(fwds) != 1 or not outputs:
            return False
        fwd = fwds[0]
        if fwd.signer != evidence.accused:
            return False
        period = fwd.statement.get("period")
        task = outputs[0].statement.get("task")
        if task is None or period is None:
            return False
        roster = self.roster_lookup(task)
        if not roster:
            return False
        replica_instances = {inst for inst in roster if not inst.endswith("#c")}
        seen_instances = set()
        for out in outputs:
            stmt = out.statement
            instance = stmt.get("instance")
            if stmt.get("task") != task or stmt.get("period") != period:
                return False
            if instance not in replica_instances:
                return False
            if roster.get(instance) != out.signer:
                return False
            seen_instances.add(instance)
        if seen_instances != replica_instances:
            return False  # need the full replica set to bound the truth
        checker_instance = next(
            (i for i in roster if i.endswith("#c")), None)
        if checker_instance is None:
            return False
        if roster[checker_instance] != evidence.accused:
            return False
        replica_values = {o.statement.get("value") for o in outputs}
        return fwd.statement.get("value") not in replica_values

    def _validate_attribution(self, evidence: Evidence) -> bool:
        declarations = [s for s in evidence.statements
                        if s.statement.get("type") == "path_problem"]
        if len(declarations) < DEFAULT_SLOT_THRESHOLD:
            return False
        if self.attribution_freshness_us is not None:
            earliest = evidence.detected_at - self.attribution_freshness_us
            if any(not (earliest
                        <= d.statement.get("declared_at", 0)
                        <= evidence.detected_at)
                   for d in declarations):
                return False
        slots = set()
        for decl in declarations:
            path = decl.statement.get("path")
            if (not path or decl.statement.get("period") is None
                    or evidence.accused not in path):
                return False
            # A node cannot manufacture support by declaring against
            # itself-adjacent paths repeatedly in the same period.
            slots.add(slot_key(decl))
        # Require corroboration: a single (possibly faulty) declarer can
        # never get a node attributed on its own say-so.
        declarers = {d.signer for d in declarations}
        if evidence.accused in declarers:
            return False
        return (len(slots) >= DEFAULT_SLOT_THRESHOLD
                and len(declarers) >= DEFAULT_MIN_DECLARERS)


def make_declaration(directory: KeyDirectory, declarer: str,
                     path: Sequence[str], flow: str, period: int,
                     declared_at: int) -> AuthenticatedStatement:
    """A signed path-problem declaration (no proof — see §4.2)."""
    return AuthenticatedStatement.make(directory, declarer, {
        "type": "path_problem",
        "path": list(path),
        "flow": flow,
        "period": period,
        "declared_at": declared_at,
    })

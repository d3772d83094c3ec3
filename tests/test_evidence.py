"""Tests for evidence records, validation, and the distribution log."""

import pytest

from repro.core.evidence import records
from repro.core.evidence import (
    ATTRIBUTION,
    COMMISSION,
    EQUIVOCATION,
    Evidence,
    EvidenceLog,
    EvidenceValidator,
    TIMING,
    input_digest,
    make_declaration,
)
from repro.core.evidence.distributor import DEFAULT_SLANDER_THRESHOLD
from repro.crypto import AuthenticatedStatement, KeyDirectory
from repro.workload import compute_output


@pytest.fixture
def directory():
    d = KeyDirectory(master_seed=3)
    for n in ("det", "bad", "up", "w1", "w2", "w3"):
        d.register(n)
    return d


@pytest.fixture
def validator(directory):
    return EvidenceValidator(directory)


def output_stmt(directory, signer, task="t", period=5, value=None,
                inputs=(1, 2), offset=100):
    correct = compute_output(task, period, list(inputs))
    payload = {
        "type": "output", "task": task, "instance": f"{task}#r1",
        "period": period, "value": value if value is not None else correct,
        "input_digest": input_digest(list(inputs)),
        "send_offset": offset,
    }
    return AuthenticatedStatement.make(directory, signer, payload)


def fwd_stmt(directory, signer, flow, period, value, offset=50):
    return AuthenticatedStatement.make(directory, signer, {
        "type": "fwd", "flow": flow, "period": period, "value": value,
        "send_offset": offset,
    })


def commission_evidence(directory, value_delta=1, digest_inputs=(1, 2),
                        supplied_inputs=(1, 2)):
    """Evidence accusing 'bad' of a wrong output for inputs (1, 2)."""
    correct = compute_output("t", 5, list(digest_inputs))
    wrong = correct + value_delta
    out = AuthenticatedStatement.make(directory, "bad", {
        "type": "output", "task": "t", "instance": "t#r1", "period": 5,
        "value": wrong, "input_digest": input_digest(list(digest_inputs)),
        "send_offset": 100,
    })
    ins = [fwd_stmt(directory, "up", f"f{i}", 5, v)
           for i, v in enumerate(supplied_inputs)]
    return Evidence.make(directory, COMMISSION, "bad", "det", 1234,
                         [out] + ins)


# --------------------------------------------------------------- commission


def test_valid_commission_evidence(directory, validator):
    ev = commission_evidence(directory)
    assert validator.cheap_check(ev)
    assert validator.validate(ev)


def test_commission_with_correct_value_is_rejected(directory, validator):
    ev = commission_evidence(directory, value_delta=0)
    assert validator.cheap_check(ev)
    assert not validator.validate(ev)


def test_commission_digest_mismatch_protects_honest_replica(
        directory, validator):
    # Accused computed on inputs (9, 9) (equivocated upstream); detector
    # supplies inputs (1, 2). Digest mismatch => evidence invalid.
    ev = commission_evidence(directory, digest_inputs=(9, 9),
                             supplied_inputs=(1, 2))
    assert not validator.validate(ev)


def test_commission_needs_output_signed_by_accused(directory, validator):
    correct = compute_output("t", 5, [1, 2])
    out = output_stmt(directory, "up", value=correct + 1)  # wrong signer
    ins = [fwd_stmt(directory, "up", "f0", 5, 1),
           fwd_stmt(directory, "up", "f1", 5, 2)]
    ev = Evidence.make(directory, COMMISSION, "bad", "det", 0, [out] + ins)
    assert not validator.validate(ev)


def test_commission_rejects_cross_period_inputs(directory, validator):
    correct = compute_output("t", 5, [1, 2])
    out = output_stmt(directory, "bad", value=correct + 1)
    ins = [fwd_stmt(directory, "up", "f0", 5, 1),
           fwd_stmt(directory, "up", "f1", 6, 2)]  # wrong period
    ev = Evidence.make(directory, COMMISSION, "bad", "det", 0, [out] + ins)
    assert not validator.validate(ev)


# ------------------------------------------------------------- equivocation


def test_valid_equivocation_evidence(directory, validator):
    a = fwd_stmt(directory, "bad", "f0", 3, 111)
    b = fwd_stmt(directory, "bad", "f0", 3, 222)
    ev = Evidence.make(directory, EQUIVOCATION, "bad", "det", 0, [a, b])
    assert validator.validate(ev)


def test_equivocation_same_value_rejected(directory, validator):
    a = fwd_stmt(directory, "bad", "f0", 3, 111)
    b = fwd_stmt(directory, "bad", "f0", 3, 111)
    ev = Evidence.make(directory, EQUIVOCATION, "bad", "det", 0, [a, b])
    assert not validator.validate(ev)


def test_equivocation_different_period_rejected(directory, validator):
    a = fwd_stmt(directory, "bad", "f0", 3, 111)
    b = fwd_stmt(directory, "bad", "f0", 4, 222)
    ev = Evidence.make(directory, EQUIVOCATION, "bad", "det", 0, [a, b])
    assert not validator.validate(ev)


def test_equivocation_statements_must_be_by_accused(directory, validator):
    a = fwd_stmt(directory, "bad", "f0", 3, 111)
    b = fwd_stmt(directory, "up", "f0", 3, 222)
    ev = Evidence.make(directory, EQUIVOCATION, "bad", "det", 0, [a, b])
    assert not validator.validate(ev)


# ------------------------------------------------------------------- timing


def test_timing_evidence_needs_period(directory):
    # Offset way past the end of a 5 ms period: grossly invalid.
    stmt = fwd_stmt(directory, "bad", "f0", 2, 42, offset=9_000)
    ev = Evidence.make(directory, TIMING, "bad", "det", 0, [stmt])
    no_period = EvidenceValidator(directory)
    assert not no_period.validate(ev)
    with_period = EvidenceValidator(directory, period=5_000)
    assert with_period.validate(ev)
    # A validator judges with the runtime's slack: the runtime emits
    # period + 700 as evidence, so it is not slander.
    late = fwd_stmt(directory, "bad", "f0", 2, 42, offset=5_700)
    assert with_period.validate(
        Evidence.make(directory, TIMING, "bad", "det", 0, [late]))


def test_timing_offset_within_period_rejected(directory):
    # In-period offsets could be legitimate under some plan; only gross
    # violations are objective evidence.
    stmt = fwd_stmt(directory, "bad", "f0", 2, 42, offset=4_000)
    ev = Evidence.make(directory, TIMING, "bad", "det", 0, [stmt])
    validator = EvidenceValidator(directory, period=5_000)
    assert not validator.validate(ev)


def test_timing_negative_offset_is_gross(directory):
    stmt = fwd_stmt(directory, "bad", "f0", 2, 42, offset=-2_000)
    ev = Evidence.make(directory, TIMING, "bad", "det", 0, [stmt])
    validator = EvidenceValidator(directory, period=5_000)
    assert validator.validate(ev)


# -------------------------------------------------------------- attribution


def decl(directory, declarer, path, period):
    return make_declaration(directory, declarer, path, "f0", period, 0)


def test_valid_attribution(directory, validator):
    decls = [
        decl(directory, "w1", ["bad", "w1"], 1),
        decl(directory, "w2", ["bad", "w2"], 1),
        decl(directory, "w1", ["bad", "w1"], 2),
    ]
    ev = Evidence.make(directory, ATTRIBUTION, "bad", "det", 0, decls)
    assert validator.validate(ev)


def test_attribution_needs_two_declarers(directory, validator):
    decls = [decl(directory, "w1", ["bad", "w1"], p) for p in (1, 2, 3)]
    ev = Evidence.make(directory, ATTRIBUTION, "bad", "det", 0, decls)
    assert not validator.validate(ev)


def test_attribution_needs_threshold_slots(directory, validator):
    decls = [
        decl(directory, "w1", ["bad", "w1"], 1),
        decl(directory, "w2", ["bad", "w2"], 1),
    ]
    ev = Evidence.make(directory, ATTRIBUTION, "bad", "det", 0, decls)
    assert not validator.validate(ev)


def test_attribution_accused_must_be_on_every_path(directory, validator):
    decls = [
        decl(directory, "w1", ["bad", "w1"], 1),
        decl(directory, "w2", ["up", "w2"], 1),  # does not name accused
        decl(directory, "w1", ["bad", "w1"], 2),
    ]
    ev = Evidence.make(directory, ATTRIBUTION, "bad", "det", 0, decls)
    assert not validator.validate(ev)


def test_attribution_self_declarations_do_not_count(directory, validator):
    # The accused "declaring" through itself cannot support its own case,
    # nor can declarations *by* the accused support attributing it.
    decls = [
        decl(directory, "bad", ["bad", "w1"], 1),
        decl(directory, "w2", ["bad", "w2"], 1),
        decl(directory, "w2", ["bad", "w2"], 2),
    ]
    ev = Evidence.make(directory, ATTRIBUTION, "bad", "det", 0, decls)
    assert not validator.validate(ev)


# ----------------------------------------------------------- forged content


def test_forged_envelope_cheap_rejected(directory, validator):
    ev = commission_evidence(directory)
    assert validator.cheap_check(ev)
    tampered = Evidence(
        kind=ev.kind, accused="up",  # tampered accusation
        detector=ev.detector, detected_at=ev.detected_at,
        statements=ev.statements, envelope=ev.envelope,
    )
    assert not validator.cheap_check(tampered)
    # Every field agrees with the envelope; only its signature is forged.
    statement = ev.envelope.statement
    forged = Evidence(
        kind=ev.kind, accused=ev.accused, detector=ev.detector,
        detected_at=ev.detected_at, statements=ev.statements,
        envelope=AuthenticatedStatement(
            statement=statement,
            signature=directory.forge(ev.detector, statement)),
    )
    assert not validator.cheap_check(forged)


def test_unknown_kind_rejected(directory):
    with pytest.raises(ValueError):
        Evidence.make(directory, "gremlins", "bad", "det", 0, [])


# -------------------------------------------------------------- EvidenceLog


def submit(log, record):
    """The runtime's two calls for a flooded record: the dedup gate, then
    evaluation of a record new to the node. None for a duplicate."""
    if isinstance(record, Evidence):
        if log.note_evidence(record):
            return log.evaluate_evidence(record)
    elif log.note_declaration(record):
        return log.evaluate_declaration(record)
    return None


def test_log_accepts_and_forwards_valid_evidence(directory, validator):
    log = EvidenceLog("n0", validator)
    ev = commission_evidence(directory)
    decision = submit(log, ev)
    assert decision.accept and decision.forward
    assert decision.implicate == "bad"
    assert log.accepted == [ev]


def test_log_dedups(directory, validator):
    log = EvidenceLog("n0", validator)
    ev = commission_evidence(directory)
    assert submit(log, ev).accept
    assert submit(log, ev) is None


def test_log_rejects_bad_signature_cheaply(directory, validator):
    log = EvidenceLog("n0", validator)
    ev = commission_evidence(directory)
    tampered = Evidence(
        kind=ev.kind, accused="up", detector=ev.detector,
        detected_at=ev.detected_at, statements=ev.statements,
        envelope=ev.envelope,
    )
    decision = submit(log, tampered)
    assert decision.reason == "bad_signature"
    assert decision.implicate is None


def test_log_counts_slander_against_signer(directory, validator):
    log = EvidenceLog("n0", validator)
    implicated = []
    for _ in range(DEFAULT_SLANDER_THRESHOLD):
        # A correct value => unsupported accusations.
        ev = commission_evidence(directory, value_delta=0)
        # Perturb detected_at to avoid dedup.
        ev = Evidence.make(directory, COMMISSION, "bad", "det",
                           len(implicated), list(ev.statements))
        decision = submit(log, ev)
        implicated.append(decision.implicate)
    assert implicated[:-1] == [None] * (DEFAULT_SLANDER_THRESHOLD - 1)
    assert implicated[-1] == "det"  # threshold reached: slanderer implicated


def test_log_handles_declarations(directory, validator):
    log = EvidenceLog("n0", validator)
    d = decl(directory, "w1", ["bad", "w1"], 1)
    decision = submit(log, d)
    assert decision.accept and decision.forward
    assert submit(log, d) is None
    assert len(log.declarations) == 1


def attribution_evidence(directory, n_slots=3):
    decls = [decl(directory, "w1", ["bad", "w1"], p)
             for p in range(1, n_slots)]
    decls.append(decl(directory, "w2", ["bad", "w2"], 1))
    return Evidence.make(directory, ATTRIBUTION, "bad", "det", 0, decls)


def test_soft_rejected_record_is_reevaluated_after_switch(directory,
                                                         monkeypatch):
    # Regression: the dedup gate used to mark records seen *before*
    # validation, so an ATTRIBUTION record soft-rejected mid-switch (the
    # validator's regime disagreed with the detector's) bounced off the
    # dedup gate as "duplicate" forever — despite the inline promise that
    # the caller may retry after its next switch. Only terminal verdicts
    # may stick now. We model the regime change the way the runtime does
    # across adopt(): the validator's notion of validity changes.
    monkeypatch.setattr(records, "DEFAULT_SLOT_THRESHOLD", 5)
    validator = EvidenceValidator(directory)
    log = EvidenceLog("n0", validator)
    ev = attribution_evidence(directory, n_slots=3)

    first = submit(log, ev)
    assert first.reason == "unsupported_soft"
    assert not first.accept and first.implicate is None  # not slander

    # After the mode switch the plans agree again (here: the validator
    # accepts the attribution). The retried record must be re-evaluated,
    # not deduplicated.
    monkeypatch.undo()
    second = submit(log, ev)
    assert second.reason == "valid"
    assert second.accept and second.implicate == "bad"

    # Acceptance is terminal: a third copy is now a duplicate.
    assert submit(log, ev) is None
    assert len(log.accepted) == 1


def test_soft_reject_does_not_feed_slander_count(directory, monkeypatch):
    # Slander-threshold interaction with the dedup fix: plan-dependent
    # soft rejects must never charge the detector, no matter how many
    # times the same record is re-submitted and re-evaluated — otherwise
    # the retry loop the fix enables would convict an honest detector.
    monkeypatch.setattr(records, "DEFAULT_SLOT_THRESHOLD", 5)
    log = EvidenceLog("n0", EvidenceValidator(directory))
    ev = attribution_evidence(directory, n_slots=3)
    for _ in range(DEFAULT_SLANDER_THRESHOLD + 1):
        decision = submit(log, ev)
        assert decision.reason == "unsupported_soft"
        assert decision.implicate is None
    assert log.invalid_counts == {}


def test_objective_unsupported_verdict_is_terminal(directory, validator):
    # An objectively unsupported record is slander-counted exactly once:
    # the terminal verdict marks it seen, so re-floods of the same record
    # are duplicates and cannot pump the slander count to the threshold.
    log = EvidenceLog("n0", validator)
    ev = commission_evidence(directory, value_delta=0)  # correct value
    first = submit(log, ev)
    assert first.reason == "unsupported"
    for _ in range(DEFAULT_SLANDER_THRESHOLD):
        assert submit(log, ev) is None
    assert log.invalid_counts == {"det": 1}

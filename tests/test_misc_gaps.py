"""Small-gap unit tests: metrics helpers, analysis corners, distributor
retry mechanics, generator parameters."""

import pytest

from repro.core.evidence import (
    COMMISSION,
    Evidence,
    EvidenceLog,
    EvidenceValidator,
)
from repro.crypto import AuthenticatedStatement, KeyDirectory
from repro.analysis import (
    BTRVerdict,
    replica_count,
)
from repro.sched import PeriodicTask, response_time
from repro.workload import (
    Criticality,
    avionics_workload,
    automotive_workload,
    compute_output,
)


# ------------------------------------------------------------------ metrics


def test_replica_count_table():
    assert replica_count("unreplicated", 1) == 1
    assert replica_count("btr", 1) == 2
    assert replica_count("btr", 2) == 3
    assert replica_count("bft", 2) == 7
    with pytest.raises(KeyError):
        replica_count("magic", 1)


# ----------------------------------------------------------- sched analysis


def test_response_time_diverges_at_full_utilization():
    # The hog saturates the CPU: the fixed point escapes the deadline.
    tasks = [PeriodicTask("hog", 10, 10), PeriodicTask("low", 5, 1000)]
    assert response_time(1, tasks) is None


def test_deadline_monotonic_tie_breaks_by_name():
    from repro.sched import deadline_monotonic_order
    tasks = [PeriodicTask("b", 1, 10), PeriodicTask("a", 1, 10)]
    assert [t.name for t in deadline_monotonic_order(tasks)] == ["a", "b"]


# --------------------------------------------------------------- generators


def test_avionics_ife_channels_scale():
    one = avionics_workload(n_ife_channels=1)
    four = avionics_workload(n_ife_channels=4)
    d_tasks = lambda g: [t for t in g.tasks.values()
                         if t.criticality == Criticality.D]
    assert len(d_tasks(four)) == len(d_tasks(one)) + 6
    four.validate()
    with pytest.raises(ValueError):
        avionics_workload(n_ife_channels=0)


def test_automotive_wheel_count_scales_sources():
    two = automotive_workload(n_wheels=2)
    six = automotive_workload(n_wheels=6)
    assert len(six.sources) == len(two.sources) + 4
    six.validate()


# --------------------------------------------------------------- distributor


@pytest.fixture
def directory():
    d = KeyDirectory(master_seed=4)
    for n in ("det", "bad", "up"):
        d.register(n)
    return d


def make_commission(directory, detected_at=0):
    from repro.core.evidence import input_digest

    correct = compute_output("t", 1, [5])
    out = AuthenticatedStatement.make(directory, "bad", {
        "type": "output", "task": "t", "instance": "t#r0", "period": 1,
        "value": correct + 1, "input_digest": input_digest([5]),
        "send_offset": 10,
    })
    inp = AuthenticatedStatement.make(directory, "up", {
        "type": "fwd", "flow": "f", "period": 1, "value": 5,
        "send_offset": 5,
    })
    return Evidence.make(directory, COMMISSION, "bad", "det", detected_at,
                         [out, inp])


def test_log_note_then_evaluate_contract(directory):
    log = EvidenceLog("n", EvidenceValidator(directory))
    ev = make_commission(directory)
    assert log.note_evidence(ev)
    assert not log.note_evidence(ev)        # duplicate copies are free
    decision = log.evaluate_evidence(ev)
    assert decision.accept


def test_log_forget_allows_reevaluation(directory):
    log = EvidenceLog("n", EvidenceValidator(directory))
    ev = make_commission(directory)
    assert log.on_evidence(ev).accept
    assert log.on_evidence(ev).reason == "duplicate"
    log.forget(ev)
    assert log.on_evidence(ev).accept       # fresh after forget


def test_validator_without_roster_rejects_forward_mismatch(directory):
    from repro.core.evidence import FORWARD_MISMATCH

    stmt = AuthenticatedStatement.make(directory, "bad", {
        "type": "fwd", "flow": "f", "period": 0, "value": 1,
        "send_offset": 0,
    })
    ev = Evidence.make(directory, FORWARD_MISMATCH, "bad", "det", 0, [stmt])
    validator = EvidenceValidator(directory)  # no roster
    assert not validator.validate(ev)
    # And the rejection is soft (plan-dependent kind).
    log = EvidenceLog("n", validator)
    assert log.on_evidence(ev).reason == "unsupported_soft"


def test_attribution_freshness_window(directory):
    from repro.core.evidence import ATTRIBUTION, make_declaration

    decls = [
        make_declaration(directory, "det", ["bad", "det"], "f", p,
                         declared_at=100 + p)
        for p in range(3)
    ] + [make_declaration(directory, "up", ["bad", "up"], "f", 0,
                          declared_at=100)]
    ev = Evidence.make(directory, ATTRIBUTION, "bad", "det", 200, decls)
    # Declarations within the window before detected_at: valid.
    wide = EvidenceValidator(directory, attribution_freshness_us=1_000)
    assert wide.validate(ev)
    # A harvest: detected_at far after the declarations were made.
    narrow = EvidenceValidator(directory, attribution_freshness_us=50)
    assert not narrow.validate(ev)
    # Declarations "from the future" (after detected_at) never count.
    future = Evidence.make(directory, ATTRIBUTION, "bad", "det", 50, decls)
    assert not wide.validate(future)


# ---------------------------------------------------------------- verdicts


def test_btr_verdict_slot_views():
    from repro.analysis.correctness import SlotVerdict

    slots = [
        SlotVerdict("f", 0, 100, "correct", False, "A"),
        SlotVerdict("f", 1, 200, "missing", True, "A"),
        SlotVerdict("f", 2, 300, "wrong_value", False, "A"),
    ]
    verdict = BTRVerdict(R_us=0, slots=slots, holds=False,
                         violations=[slots[2]])
    assert len(verdict.disrupted_slots()) == 2
    assert len(verdict.excused_slots()) == 1
    assert not verdict.holds

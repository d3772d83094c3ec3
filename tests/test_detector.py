"""Tests for the detector logic: checking, timing windows, blame."""

import pytest
from hypothesis import given, strategies as st

from repro.core.detector import (
    DEFAULT_SLOT_THRESHOLD,
    BlameTracker,
    OK,
    SELF_INCRIMINATING,
    SUSPICIOUS_ARRIVAL,
    build_output_statement,
    run_check,
)
from repro.core.detector.timing import DEFAULT_TIMING
from repro.core.evidence import input_digest, make_declaration
from repro.core.planner.plan import Plan
from repro.core.detector.checker import (
    ForwardTemplate,
    OutputTemplate,
    build_forward_statement,
    build_output_statement,
)
from repro.crypto import AuthenticatedStatement, KeyDirectory, canonical_bytes
from repro.workload import compute_output


@pytest.fixture
def directory():
    d = KeyDirectory(master_seed=11)
    for n in ("r0", "r1", "r2", "chk", "w1", "w2", "bad"):
        d.register(n)
    return d


def replica_stmt(directory, signer, task, period, value, inputs):
    payload = build_output_statement(
        task=task, instance=f"{task}#{signer}", period=period, value=value,
        input_values=inputs, send_offset=10,
    )
    return AuthenticatedStatement.make(directory, signer, payload)


REPLICAS = ["t#r0", "t#r1"]


def test_all_agree_forwards_primary(directory):
    correct = compute_output("t", 0, [1, 2])
    stmts = {
        "t#r0": replica_stmt(directory, "r0", "t", 0, correct, [1, 2]),
        "t#r1": replica_stmt(directory, "r1", "t", 0, correct, [1, 2]),
    }
    outcome = run_check("t", 0, REPLICAS, stmts, [1, 2])
    assert outcome.forward_value == correct
    assert outcome.forward_source == "t#r0"
    assert not outcome.convicted and not outcome.missing
    assert not outcome.recomputed  # agreement skips the re-execution


def test_primary_missing_uses_other_replica(directory):
    correct = compute_output("t", 0, [1, 2])
    stmts = {"t#r1": replica_stmt(directory, "r1", "t", 0, correct, [1, 2])}
    outcome = run_check("t", 0, REPLICAS, stmts, [1, 2])
    assert outcome.forward_value == correct
    assert outcome.forward_source == "t#r1"
    assert outcome.missing == ["t#r0"]


def test_nothing_arrived(directory):
    outcome = run_check("t", 0, REPLICAS, {}, [1, 2])
    assert outcome.forward_value is None
    assert outcome.missing == REPLICAS


def test_disagreement_convicts_wrong_replica(directory):
    correct = compute_output("t", 0, [1, 2])
    stmts = {
        "t#r0": replica_stmt(directory, "r0", "t", 0, correct ^ 1, [1, 2]),
        "t#r1": replica_stmt(directory, "r1", "t", 0, correct, [1, 2]),
    }
    outcome = run_check("t", 0, REPLICAS, stmts, [1, 2])
    assert outcome.recomputed
    assert outcome.reference == correct
    assert outcome.convicted == ["t#r0"]
    assert outcome.investigate == []
    # The fast path still forwarded the primary's (wrong) value — BTR
    # semantics: briefly-wrong outputs, bounded by the mode switch.
    assert outcome.forward_value == correct ^ 1


def test_digest_mismatch_triggers_investigation(directory):
    # r0 computed on different inputs (claims digest over [9, 9]).
    v0 = compute_output("t", 0, [9, 9])
    v1 = compute_output("t", 0, [1, 2])
    stmts = {
        "t#r0": replica_stmt(directory, "r0", "t", 0, v0, [9, 9]),
        "t#r1": replica_stmt(directory, "r1", "t", 0, v1, [1, 2]),
    }
    outcome = run_check("t", 0, REPLICAS, stmts, [1, 2])
    assert outcome.convicted == []
    assert outcome.investigate == ["t#r0"]


def test_disagreement_without_inputs_investigates(directory):
    correct = compute_output("t", 0, [1, 2])
    stmts = {
        "t#r0": replica_stmt(directory, "r0", "t", 0, correct, [1, 2]),
        "t#r1": replica_stmt(directory, "r1", "t", 0, correct ^ 5, [1, 2]),
    }
    outcome = run_check("t", 0, REPLICAS, stmts, own_input_values=None)
    assert not outcome.convicted
    assert outcome.investigate == ["t#r1"]  # disagrees with forwarded value


def test_three_replicas_multiple_convictions(directory):
    replicas = ["t#r0", "t#r1", "t#r2"]
    correct = compute_output("t", 0, [7])
    stmts = {
        "t#r0": replica_stmt(directory, "r0", "t", 0, correct ^ 2, [7]),
        "t#r1": replica_stmt(directory, "r1", "t", 0, correct, [7]),
        "t#r2": replica_stmt(directory, "r2", "t", 0, correct ^ 4, [7]),
    }
    outcome = run_check("t", 0, replicas, stmts, [7])
    assert set(outcome.convicted) == {"t#r0", "t#r2"}


# ------------------------------------------------------------------- timing


class _Flow:
    def __init__(self, name, src):
        self.name = name
        self.src = src


class _Slot:
    finish = 1_000


class PlanStub:
    """Minimal plan: one task-produced flow copy plus a source flow."""

    # The real table behind DEFAULT_TIMING.send_window, over the stub's
    # flows / tasks / slots.
    _send_offsets = None
    planned_send_offset = Plan.planned_send_offset

    def __init__(self):
        self.augmented = type("G", (), {})()
        self.augmented.flows = [_Flow("f@r0", "t#c"), _Flow("sens@r0", "s")]
        self.augmented.tasks = {"t#c": object()}
        self.schedule = type("S", (), {
            "slot_for": staticmethod(lambda inst: _Slot()
                                     if inst == "t#c" else None),
        })()
        self.routes = {"f@r0": ["a", "b"]}

    def planned_arrival(self, flow):
        return 1_400 if flow == "f@r0" else None


def test_timing_judgement_ok():
    plan = PlanStub()
    assert DEFAULT_TIMING.judge(plan, "f", "f@r0", claimed_send_offset=1_100,
                                actual_arrival_offset=1_500) == OK


def test_timing_self_incriminating():
    plan = PlanStub()
    assert DEFAULT_TIMING.judge(plan, "f", "f@r0", claimed_send_offset=5_000,
                                actual_arrival_offset=5_400
                                ) == SELF_INCRIMINATING


def test_timing_suspicious_arrival():
    plan = PlanStub()
    # Claimed send time fine, but arrival way past the deadline.
    assert DEFAULT_TIMING.judge(plan, "f", "f@r0", claimed_send_offset=1_050,
                                actual_arrival_offset=9_000
                                ) == SUSPICIOUS_ARRIVAL


def test_timing_source_flow_window_is_period_start():
    slack = DEFAULT_TIMING.slack_us
    assert DEFAULT_TIMING.send_window(PlanStub(), "sens") == (-slack, slack)


def test_timing_unknown_flow_has_no_window():
    plan = PlanStub()
    assert DEFAULT_TIMING.send_window(plan, "ghost") is None
    assert DEFAULT_TIMING.judge(plan, "ghost", "ghost", 0, 0) == OK


# ---------------------------------------------------------------- templates

#: Names with quotes, backslashes, non-ASCII, control characters, ``%``.
names = st.text(max_size=12)
#: Arbitrary-size integers: negative, beyond 2**63.
integers = st.integers(min_value=-2 ** 80, max_value=2 ** 80)


@given(task=names, instance=names, period=integers, value=integers,
       inputs=st.lists(integers, max_size=3), offset=integers)
def test_output_template_equals_canonical_bytes(task, instance, period,
                                                value, inputs, offset):
    payload = build_output_statement(task, instance, period, value,
                                     inputs, offset)
    template = OutputTemplate(task, instance)
    assert template.canonical(payload) == canonical_bytes(payload)
    # Any other shape, name or field type is canonical_bytes' to answer.
    for other in ({**payload, "extra": 1},
                  {k: v for k, v in payload.items() if k != "value"},
                  {**payload, "task": task + "x"},
                  {**payload, "value": True},
                  {**payload, "input_digest": "\"q\\"}):
        assert template.canonical(other) == canonical_bytes(other)


@given(flow=names, period=integers, value=integers, offset=integers,
       reconstructed=st.booleans())
def test_forward_template_equals_canonical_bytes(flow, period, value,
                                                 offset, reconstructed):
    payload = build_forward_statement(flow, period, value, offset,
                                      reconstructed=reconstructed)
    template = ForwardTemplate(flow)
    assert template.canonical(payload) == canonical_bytes(payload)
    for other in ({**payload, "extra": 1},
                  {k: v for k, v in payload.items() if k != "period"},
                  {**payload, "flow": flow + "x"},
                  {**payload, "send_offset": 1.5},
                  {**payload, "reconstructed": 1}):
        assert template.canonical(other) == canonical_bytes(other)


# -------------------------------------------------------------------- blame


def test_blame_attribution_basic(directory):
    tracker = BlameTracker()
    for period, declarer in ((1, "w1"), (2, "w1"), (1, "w2")):
        tracker.add_declaration(make_declaration(
            directory, declarer, ["bad", declarer], "f", period, 0))
    assert tracker.charges_against("bad") == 3
    assert tracker.newly_attributable() == ["bad"]
    # Sticky: not reported twice.
    assert tracker.newly_attributable() == []


def test_blame_single_declarer_never_attributes(directory):
    tracker = BlameTracker()
    for period in range(10):
        tracker.add_declaration(make_declaration(
            directory, "w1", ["bad", "w1"], "f", period, 0))
    assert tracker.newly_attributable() == []


def test_blame_declarer_not_charged_by_own_declaration(directory):
    tracker = BlameTracker()
    tracker.add_declaration(make_declaration(
        directory, "w1", ["bad", "w1"], "f", 1, 0))
    assert tracker.charges_against("w1") == 0
    assert tracker.charges_against("bad") == 1


def test_blame_slander_cannot_convict(directory):
    # "bad" floods declarations against w1's paths; w1 stays safe because
    # all charges come from a single declarer.
    tracker = BlameTracker()
    for period in range(5):
        tracker.add_declaration(make_declaration(
            directory, "bad", ["w1", "bad"], "f", period, 0))
    assert tracker.newly_attributable() == []


def test_blame_supporting_declarations(directory):
    tracker = BlameTracker()
    decls = [
        make_declaration(directory, "w1", ["bad", "w1"], "f", 1, 0),
        make_declaration(directory, "w2", ["other", "w2"], "f", 1, 0),
    ]
    support = tracker.supporting_declarations("bad", decls)
    assert len(support) == 1 and support[0].signer == "w1"


def test_blame_single_adjacency_withholds_for_live_nodes(directory):
    """Charges all consistent with one link + the node demonstrably alive
    => withhold (it may be the link, not the node)."""
    tracker = BlameTracker(liveness=lambda n: True)
    for period, declarer in ((1, "w1"), (1, "w2"), (2, "w1")):
        tracker.add_declaration(make_declaration(
            directory, declarer, ["bad", "chk", declarer], "f", period, 0))
    # All paths have "bad" adjacent only to "chk".
    assert tracker.charges_against("bad") >= DEFAULT_SLOT_THRESHOLD
    assert tracker.newly_attributable() == []


def test_blame_single_adjacency_escalates_when_sustained(directory):
    """The link excuse is not permanent: charges spanning many periods
    escalate to attribution even for a live node. ("chk", the common
    neighbour, also declares — charging only "bad" — which is what makes
    "bad" strictly dominant, as in the real ring scenarios.)"""
    tracker = BlameTracker(liveness=lambda n: True)
    for period in range(DEFAULT_SLOT_THRESHOLD + 2):  # the sustained span
        tracker.add_declaration(make_declaration(
            directory, "chk", ["bad", "chk"], "f", period, 0))
        tracker.add_declaration(make_declaration(
            directory, "w1", ["bad", "chk", "w1"], "f", period, 0))
    assert tracker.newly_attributable() == ["bad"]


def test_blame_dead_node_needs_extra_slots_on_single_adjacency(directory):
    """A silent single-adjacency candidate gets the patience window (its
    life signal may be in flight), then is attributed. The shape mirrors
    a dead node whose traffic all routed via one neighbour ("chk"): the
    neighbour's own declarations (charging only the dead node) are what
    break the dominance tie."""
    tracker = BlameTracker(liveness=lambda n: False)
    tracker.add_declaration(make_declaration(
        directory, "w1", ["bad", "chk", "w1"], "f", 1, 0))
    for period in range(1, DEFAULT_SLOT_THRESHOLD + 1):
        tracker.add_declaration(make_declaration(
            directory, "chk", ["bad", "chk"], "f", period, 0))
    # Threshold (slots, 2 declarers) met; patience (threshold+2) not.
    assert tracker.charges_against("bad") == DEFAULT_SLOT_THRESHOLD + 1
    assert tracker.newly_attributable() == []
    tracker.add_declaration(make_declaration(
        directory, "chk", ["bad", "chk"], "f", DEFAULT_SLOT_THRESHOLD + 1, 0))
    assert tracker.newly_attributable() == ["bad"]


def test_blame_multi_adjacency_attributes_immediately(directory):
    """Charges via two distinct adjacencies cannot be one link."""
    tracker = BlameTracker(liveness=lambda n: True)
    for period in range(1, DEFAULT_SLOT_THRESHOLD):
        tracker.add_declaration(make_declaration(
            directory, "w1", ["x", "bad", "w1"], "f", period, 0))
    tracker.add_declaration(make_declaration(
        directory, "w2", ["y", "bad", "w2"], "f", 1, 0))
    assert tracker.newly_attributable() == ["bad"]


def test_blame_reset_clears_liveness_fallback(directory):
    tracker = BlameTracker()
    tracker.add_declaration(make_declaration(
        directory, "w1", ["bad", "w1"], "f", 1, 0))
    assert "w1" in tracker.seen_declarers
    tracker.reset_charges()
    assert tracker.seen_declarers == set()
    assert tracker.charges_against("bad") == 0

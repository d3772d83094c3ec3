"""Static recovery-bound analyzer (Layer 4): unit + property tests.

Covers the analyzer's output shape, the conviction-profile model, the
``bound.*`` rule family (including the pinned-vs-derived severity
split and waivers), the ``repro bounds`` CLI exit codes, and the two
soundness populations that do not need a benchmark sweep: a
hypothesis-driven fault grid and the committed fuzz ``corpus/``.
"""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import Deployment
from repro.cli import main as cli_main
from repro.core.detector.omission import DEFAULT_MIN_DECLARERS
from repro.faults import single_fault
from repro.fuzz import load_corpus
from repro.mc import replay_counterexample
from repro.obs import reconstruct_timelines
from repro.obs.recovery import PHASES
from repro.verify.bounds import (FAULT_CLASSES, SoundnessCheck,
                                 bounds_findings, check_timelines,
                                 class_of_kind, compute_bounds,
                                 conviction_profile)
from repro.core.planner.serialize import strategy_from_json, strategy_to_json
from repro.sched.lanes import LaneModel
from repro.verify.findings import Report, Severity

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "corpus")

ANALYZED_KINDS = ("crash", "omission", "commission", "equivocation",
                  "timing", "rogue_clock")


def prepared(deployment: Deployment):
    system = deployment.system()
    system.prepare()
    return system


@pytest.fixture(scope="module")
def pipeline_system():
    return prepared(Deployment("pipeline", "fullmesh:4"))


@pytest.fixture(scope="module")
def pipeline_report(pipeline_system):
    return compute_bounds(pipeline_system.strategy,
                          pipeline_system.topology,
                          pipeline_system.lane_model,
                          pipeline_system.config,
                          budget=pipeline_system.budget)


@pytest.fixture(scope="module")
def industrial_system():
    return prepared(Deployment("industrial", "fullmesh:5"))


@pytest.fixture(scope="module")
def industrial_report(industrial_system):
    return compute_bounds(industrial_system.strategy,
                          industrial_system.topology,
                          industrial_system.lane_model,
                          industrial_system.config,
                          budget=industrial_system.budget)


# ----------------------------------------------------------- report shape


def test_report_covers_every_mode_and_class(industrial_system,
                                            industrial_report):
    report = industrial_report
    strategy = industrial_system.strategy
    modes = {e.mode for e in report.entries}
    # Only non-terminal modes (those with a further fault to recover
    # from) are bounded; at f=1 that is exactly the nominal mode.
    expected = {strategy.plan_for(p).mode for p in strategy.patterns()
                if len(p) < strategy.f}
    assert modes == expected
    for mode in modes:
        assert {e.fault_class for e in report.entries if e.mode == mode} \
            == set(FAULT_CLASSES)
    for entry in report.entries:
        assert set(entry.phases) == set(PHASES)
        assert all(isinstance(v, int) and v >= 0
                   for v in entry.phases.values())
        assert entry.total_us == sum(entry.phases.values())


def test_benchmark_deployment_within_budget(industrial_report):
    assert industrial_report.exceeding() == []
    assert all(e.total_us <= industrial_report.R_us
               for e in industrial_report.entries)


def test_worst_for_class_dominates_every_mode(industrial_report):
    for fault_class in FAULT_CLASSES:
        merged = industrial_report.worst_for_class(fault_class)
        for entry in industrial_report.for_class(fault_class):
            for phase in PHASES:
                assert merged.phases[phase] >= entry.phases[phase]
            for victim, total in entry.victim_totals.items():
                assert merged.victim_totals[victim] >= total


def test_worst_for_kind_maps_through_class(industrial_report):
    for kind in ANALYZED_KINDS:
        bound = industrial_report.worst_for_kind(kind)
        assert bound is not None
        assert bound.fault_class == class_of_kind(kind)
    # evidence_flood attacks the control plane itself: out of scope,
    # explicitly unbounded rather than silently bounded wrong.
    assert class_of_kind("evidence_flood") is None
    assert industrial_report.worst_for_kind("evidence_flood") is None


def test_report_roundtrips_to_dict(industrial_report):
    payload = industrial_report.to_dict()
    assert payload["R_us"] == industrial_report.R_us
    assert len(payload["entries"]) == len(industrial_report.entries)
    json.dumps(payload)  # must be JSON-serialisable as exported


# ----------------------------------------------------- conviction profile


def test_conviction_profile_reachable_victim(industrial_system):
    strategy = industrial_system.strategy
    plan = strategy.plan_for(frozenset())
    reachable = [
        victim for victim in industrial_system.compromisable_nodes()
        if conviction_profile(plan, victim).periods is not None
    ]
    assert reachable, "some victim must be statically attributable"
    for victim in reachable:
        profile = conviction_profile(plan, victim)
        assert profile.slots_per_period > 0
        assert profile.declarers >= DEFAULT_MIN_DECLARERS
        # Strict dominance: every co-charged rival accrues fewer slots.
        assert profile.co_charged_max < profile.slots_per_period
        assert profile.periods >= 1


def test_conviction_profile_single_declarer_unreachable():
    # Automotive on fullmesh:5 leaves one victim with a single distinct
    # declarer — the paper's single-counterparty omission corner (E9).
    system = prepared(Deployment("automotive", "fullmesh:5"))
    plan = system.strategy.plan_for(frozenset())
    profiles = {victim: conviction_profile(plan, victim)
                for victim in system.compromisable_nodes()}
    unreachable = {v: p for v, p in profiles.items()
                   if p.periods is None}
    assert unreachable, "expected the single-declarer corner"
    assert any("declarer" in p.reason for p in unreachable.values())


def test_conviction_profile_off_route_node(pipeline_system):
    plan = pipeline_system.strategy.plan_for(frozenset())
    routed = {node for route in plan.routes.values() for node in route}
    off_route = [n for n in pipeline_system.topology.node_ids()
                 if n not in routed]
    for victim in off_route:
        profile = conviction_profile(plan, victim)
        assert profile.periods is None
        assert profile.slots_per_period == 0


# ------------------------------------------------------------ bound rules


def test_rules_clean_on_benchmark_deployment(industrial_system):
    findings = bounds_findings(industrial_system.strategy,
                               industrial_system.topology,
                               industrial_system.lane_model,
                               industrial_system.config,
                               budget=industrial_system.budget)
    assert [f for f in findings if f.rule == "bound.exceeds-budget"] \
        == []


def test_exceeds_budget_error_when_r_pinned(industrial_system):
    config = dataclasses.replace(industrial_system.config, R_us=50_000)
    findings = bounds_findings(industrial_system.strategy,
                               industrial_system.topology,
                               industrial_system.lane_model,
                               config, budget=industrial_system.budget)
    exceeds = [f for f in findings if f.rule == "bound.exceeds-budget"]
    assert exceeds, "a 50ms pinned R must be exceeded"
    assert all(f.severity is Severity.ERROR for f in exceeds)
    # A pinned R this low is dominated by single phases too.
    assert any(f.rule == "bound.phase-dominates-r" for f in findings)


def test_exceeds_budget_warning_when_r_derived(pipeline_system,
                                               pipeline_report):
    # Force the derived-R path onto an exceeding report with a budget
    # whose total is half the first class's bound, rather than pinning
    # config.R_us. Its switch lead (distribution) is the one component
    # the bounds read, so they stay as they are.
    assert pipeline_system.config.R_us is None
    budget = pipeline_system.budget
    excess = budget.total_us - pipeline_report.entries[0].total_us // 2
    tight = dataclasses.replace(budget,
                                detection_us=budget.detection_us - excess)
    findings = bounds_findings(pipeline_system.strategy,
                               pipeline_system.topology,
                               pipeline_system.lane_model,
                               pipeline_system.config, budget=tight)
    exceeds = [f for f in findings if f.rule == "bound.exceeds-budget"]
    assert exceeds
    assert all(f.severity is Severity.WARNING for f in exceeds)


def test_waive_by_rule_and_subject(industrial_system):
    config = dataclasses.replace(industrial_system.config, R_us=50_000)
    report = Report(bounds_findings(
        industrial_system.strategy, industrial_system.topology,
        industrial_system.lane_model, config,
        budget=industrial_system.budget))
    assert report.findings
    # Whole-rule waiver drops every finding of that rule.
    waived = report.waive(["bound.exceeds-budget",
                           "bound.phase-dominates-r"])
    assert waived.findings == []
    # Subject-scoped waiver drops only the named subject.
    subjects = {f.subject for f in report.findings
                if f.rule == "bound.exceeds-budget"}
    target = sorted(subjects)[0]
    partial = report.waive([f"bound.exceeds-budget:{target}"])
    remaining = {f.subject for f in partial.findings
                 if f.rule == "bound.exceeds-budget"}
    assert target not in remaining
    assert remaining == subjects - {target}


# ------------------------------------------------------- the kept report

INDUSTRIAL = Deployment("industrial", "fullmesh:5")


def _cold(system, topology, lane_model, config, budget):
    """The report computed from scratch: a clone of the strategy holds
    no report yet."""
    clone = strategy_from_json(strategy_to_json(system.strategy))
    return compute_bounds(clone, topology, lane_model, config,
                          budget=budget)


def test_repeated_compute_bounds_returns_the_kept_report():
    system = prepared(INDUSTRIAL)
    args = (system.strategy, system.topology, system.lane_model,
            system.config)
    first = compute_bounds(*args, budget=system.budget)
    assert compute_bounds(*args, budget=system.budget) is first
    # An equal config and budget are the same inputs.
    assert compute_bounds(
        system.strategy, system.topology, system.lane_model,
        dataclasses.replace(system.config),
        budget=dataclasses.replace(system.budget)) is first


def test_strict_prepare_leaves_the_report_the_caller_reads():
    system = INDUSTRIAL.system()
    budget = system.prepare(strict=True)
    held = system.strategy._bounds
    assert held is not None
    assert compute_bounds(system.strategy, system.topology,
                          system.lane_model, system.config,
                          budget=budget) is held[-1]


def _other_config(system):
    return system.topology, system.lane_model, dataclasses.replace(
        system.config, R_us=123_456), system.budget


def _other_topology(system):
    topology = INDUSTRIAL.build_topology()
    topology.place_endpoints_round_robin(system.workload.sources,
                                         system.workload.sinks)
    return topology, LaneModel(topology), system.config, system.budget


def _other_lane_model(system):
    return (system.topology, LaneModel(system.topology), system.config,
            system.budget)


def _other_budget(system):
    budget = dataclasses.replace(
        system.budget, distribution_us=system.budget.distribution_us + 7)
    return system.topology, system.lane_model, system.config, budget


@pytest.mark.parametrize("inputs", [_other_config, _other_topology,
                                    _other_lane_model, _other_budget])
def test_other_inputs_get_a_fresh_report(inputs):
    system = prepared(INDUSTRIAL)
    kept = compute_bounds(system.strategy, system.topology,
                          system.lane_model, system.config,
                          budget=system.budget)
    topology, lane_model, config, budget = inputs(system)
    fresh = compute_bounds(system.strategy, topology, lane_model, config,
                           budget=budget)
    assert fresh is not kept
    cold = _cold(system, topology, lane_model, config, budget)
    assert fresh.to_dict() == cold.to_dict()
    # The strategy now keeps the fresh report, for the new inputs only.
    assert compute_bounds(system.strategy, topology, lane_model, config,
                          budget=budget) is fresh
    again = compute_bounds(system.strategy, system.topology,
                           system.lane_model, system.config,
                           budget=system.budget)
    assert again is not kept and again.to_dict() == kept.to_dict()


# -------------------------------------------------------------- bounds CLI


def test_cli_bounds_within_budget_exits_zero(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    rc = cli_main(["bounds", "--workload", "industrial",
                   "--topology", "fullmesh:5", "--f", "1",
                   "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["entries"]
    assert all(e["total_us"] <= payload["R_us"]
               for e in payload["entries"])
    assert "all bounds within" in capsys.readouterr().out


def test_cli_bounds_underprovisioned_exits_nonzero(capsys):
    rc = cli_main(["bounds", "--workload", "industrial",
                   "--topology", "fullmesh:5", "--f", "1",
                   "--R", "0.05"])
    assert rc == 1
    assert "EXCEED" in capsys.readouterr().out


# ------------------------------------------------------ soundness: corpus


def test_corpus_replay_soundness(pipeline_report):
    entries = load_corpus(CORPUS_DIR)
    assert entries, "the committed corpus must not be empty"
    check = SoundnessCheck()
    for _name, payload in entries:
        deployment = Deployment.from_meta(payload["meta"])
        assert (deployment.workload, deployment.topology) \
            == ("pipeline", "fullmesh:4")
        system = prepared(deployment)
        report = compute_bounds(system.strategy, system.topology,
                                system.lane_model, system.config,
                                budget=system.budget)
        _, result = replay_counterexample(system, payload)
        check_timelines(report, reconstruct_timelines(result), check)
    assert check.checked > 0
    assert check.ok, [str(v) for v in check.violations]


# --------------------------------------------------- soundness: property


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(ANALYZED_KINDS),
       victim_index=st.integers(min_value=0, max_value=10 ** 6),
       offset=st.integers(min_value=0, max_value=10 ** 6))
def test_property_static_bound_dominates_empirical(kind, victim_index,
                                                   offset):
    """For any single fault the simulator produces, every empirical
    phase span and the end-to-end recovery sit at or below the static
    bound of the fault's class (the analyzer's soundness claim)."""
    system = prepared(Deployment("pipeline", "fullmesh:4"))
    report = compute_bounds(system.strategy, system.topology,
                            system.lane_model, system.config,
                            budget=system.budget)
    victims = [n for n in system.topology.node_ids()
               if system.strategy.has_plan(frozenset({n}))]
    victim = victims[victim_index % len(victims)]
    period = system.strategy.nominal.workload.period
    at = 4 * period + offset % period
    result = system.run(20, single_fault(
        system, kind, at=at, node=victim).script)
    check = check_timelines(report, reconstruct_timelines(result))
    assert check.ok, [str(v) for v in check.violations]

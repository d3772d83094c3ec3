"""Unit tests for mode-change machinery: fault sets, switcher, transitions."""

import pytest

from repro.core.modes import (
    FaultSet,
    ModeSwitcher,
    compute_transition,
    state_source,
    switch_boundary,
)
from repro.core.planner import build_plan
from repro.net import full_mesh_topology
from repro.sim import ms
from repro.workload import pipeline_workload


# ----------------------------------------------------------------- FaultSet


def test_faultset_is_append_only():
    fs = FaultSet()
    assert fs.add("a")
    assert not fs.add("a")  # duplicates report no news
    assert fs.add("b")
    assert list(fs) == ["a", "b"]
    assert "a" in fs and "c" not in fs
    assert len(fs) == 2


def test_faultset_snapshot_is_immutable_copy():
    fs = FaultSet()
    fs.add("a")
    snap = fs.snapshot()
    fs.add("b")
    assert snap == frozenset({"a"})


# ----------------------------------------------------------- switch boundary


def test_switch_boundary_is_next_period_start():
    # Evidence at 123, lead 100, period 1000 -> boundary 1000.
    assert switch_boundary(123, 100, 1000) == 1000
    # Exactly on a boundary stays there.
    assert switch_boundary(900, 100, 1000) == 1000
    # Past it rolls to the next.
    assert switch_boundary(950, 100, 1000) == 2000


def test_switch_boundary_is_deterministic_in_evidence_time():
    # Two nodes that accept the same evidence compute the same boundary,
    # regardless of when they each received it.
    b1 = switch_boundary(12_345, 5_000, 10_000)
    b2 = switch_boundary(12_345, 5_000, 10_000)
    assert b1 == b2 == 20_000


def test_switch_boundary_target_exactly_on_period_boundary():
    # evidence_time + lead landing exactly on a period start must pick
    # that period start, not roll over to the next one.
    assert switch_boundary(1_900, 100, 1_000) == 2_000
    assert switch_boundary(0, 1_000, 1_000) == 1_000
    assert switch_boundary(3_000, 2_000, 1_000) == 5_000


def test_switch_boundary_zero_lead():
    # lead=0: the boundary is the first period start at/after the
    # evidence time itself; evidence exactly on a start switches there.
    assert switch_boundary(2_000, 0, 1_000) == 2_000
    assert switch_boundary(2_001, 0, 1_000) == 3_000
    assert switch_boundary(0, 0, 1_000) == 0


# -------------------------------------------------------------- transitions


@pytest.fixture(scope="module")
def two_plans():
    wl = pipeline_workload(n_stages=2, period=ms(50))
    topo = full_mesh_topology(6, bandwidth=1e8)
    topo.place_endpoints_round_robin(wl.sources, wl.sinks)
    nominal = build_plan(wl, frozenset(), topo, f=1)
    # Fail a node that hosts something.
    hosting = sorted(set(nominal.assignment.values())
                     - set(topo.endpoint_map.values()))
    faulty = hosting[0]
    degraded = build_plan(wl, frozenset({faulty}), topo, f=1,
                          parent_assignment=nominal.assignment)
    return nominal, degraded, faulty


def test_transition_moves_only_what_the_fault_forces(two_plans):
    nominal, degraded, faulty = two_plans
    # The failed node's instances appear in someone's start list; nodes
    # unaffected by the fault mostly do nothing.
    displaced = set(nominal.instances_on(faulty))
    assert displaced  # the chosen node hosted something
    started = set()
    for node in degraded.schedule.node_schedules:
        t = compute_transition(node, nominal, degraded, {faulty})
        started |= set(t.start)
    assert displaced <= started


def test_transition_fetches_reference_correct_sources(two_plans):
    nominal, degraded, faulty = two_plans
    for node in degraded.schedule.node_schedules:
        t = compute_transition(node, nominal, degraded, {faulty})
        for fetch in t.fetches:
            assert fetch.source != faulty  # never fetch from the faulty node
            assert fetch.bits > 0


def test_state_source_prefers_old_host_then_sibling(two_plans):
    nominal, degraded, faulty = two_plans
    instance = nominal.instances_on(faulty)[0]
    # Old host faulty -> fall back to a sibling replica's host.
    source = state_source(instance, nominal, {faulty})
    if source is not None:
        assert source != faulty
    # With no faults, the old host itself is the source.
    assert state_source(instance, nominal, set()) == faulty


def test_state_source_none_when_everything_faulty(two_plans):
    nominal, degraded, faulty = two_plans
    instance = nominal.instances_on(faulty)[0]
    all_hosts = set(nominal.assignment.values())
    assert state_source(instance, nominal, all_hosts) is None


def test_transition_noop_for_uninvolved_node(two_plans):
    nominal, degraded, faulty = two_plans
    # A node with identical duties in both plans does nothing.
    for node in degraded.schedule.node_schedules:
        if (nominal.instances_on(node) == degraded.instances_on(node)
                and node != faulty):
            t = compute_transition(node, nominal, degraded, {faulty})
            assert not t.stop and not t.start
            break


# ----------------------------------------------------------------- switcher


@pytest.fixture()
def switcher():
    wl = pipeline_workload(n_stages=2, period=ms(50))
    topo = full_mesh_topology(6, bandwidth=1e8)
    topo.place_endpoints_round_robin(wl.sources, wl.sinks)
    from repro.core.planner import build_strategy
    strategy = build_strategy(wl, topo, f=1)
    return ModeSwitcher(strategy, period=ms(50), switch_lead=ms(10)), strategy


def test_switcher_schedules_switch_on_new_fault(switcher):
    sw, strategy = switcher
    victim = sorted(strategy.covered_nodes)[0]
    pending = sw.on_implicated(victim, evidence_time=120_000, now=125_000)
    assert pending is not None
    assert pending.at == 150_000  # next period start after 120ms + 10ms
    assert pending.plan.pattern == frozenset({victim})


def test_switcher_ignores_known_faults(switcher):
    sw, strategy = switcher
    victim = sorted(strategy.covered_nodes)[0]
    assert sw.on_implicated(victim, 120_000, 125_000) is not None
    assert sw.on_implicated(victim, 130_000, 135_000) is None


def test_switcher_late_learner_switches_immediately(switcher):
    sw, strategy = switcher
    victim = sorted(strategy.covered_nodes)[0]
    pending = sw.on_implicated(victim, evidence_time=120_000, now=200_000)
    assert pending.at == 200_000


def test_switcher_uncovered_node_changes_nothing(switcher):
    sw, strategy = switcher
    outside = "definitely-not-a-node"
    pending = sw.on_implicated(outside, 120_000, 125_000)
    assert pending is None  # fault set grew but the plan is unchanged
    assert outside in sw.fault_set


def test_switcher_reimplication_is_counted_not_rescheduled():
    from repro.obs import MetricsRegistry

    wl = pipeline_workload(n_stages=2, period=ms(50))
    topo = full_mesh_topology(6, bandwidth=1e8)
    topo.place_endpoints_round_robin(wl.sources, wl.sinks)
    from repro.core.planner import build_strategy
    strategy = build_strategy(wl, topo, f=1)
    metrics = MetricsRegistry()
    sw = ModeSwitcher(strategy, period=ms(50), switch_lead=ms(10),
                      metrics=metrics)
    victim = sorted(strategy.covered_nodes)[0]
    assert sw.on_implicated(victim, 120_000, 125_000) is not None
    # Re-implicating the same node (later evidence, retries, floods) is
    # ignored — and visibly so, via the metrics channel.
    for t in (130_000, 140_000, 150_000):
        assert sw.on_implicated(victim, t, t + 1_000) is None
    assert metrics.counter_value("implications_ignored",
                                 reason="known_fault") == 3
    assert metrics.counter_value("mode_switches_scheduled",
                                 kind="boundary") == 1

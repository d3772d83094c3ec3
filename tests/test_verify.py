"""Tests for the static plan/mode-graph verifier (``repro.verify``).

Strategy: plan the canonical seed scenario once, assert it verifies
clean, then hand-corrupt *clones* of its plans — one corruption per rule
— and assert each corruption trips exactly the expected rule id.
"""

import copy

import pytest

from repro import BTRConfig, BTRSystem
from repro.core.planner import (
    AugmentConfig,
    Strategy,
    augmented_ladder,
    build_plan,
    build_strategy,
)
from repro.core.planner.serialize import plan_from_dict, plan_to_dict
from repro.net import full_mesh_topology
from repro.sched.table import ScheduleEntry
from repro.verify import (
    RULES,
    Finding,
    Report,
    Severity,
    VerificationError,
    check_mode_graph,
    check_placement,
    check_routes,
    check_schedule,
    require_clean,
    verify_plan,
    verify_strategy,
)
from repro.workload import industrial_workload


@pytest.fixture(scope="module")
def system():
    sys_ = BTRSystem(
        industrial_workload(),
        full_mesh_topology(5, bandwidth=1e8),
        BTRConfig(f=1, seed=42),
    )
    sys_.prepare()
    return sys_


def clone(plan):
    """Deep-copy a plan via its lossless serialization round-trip."""
    return plan_from_dict(plan_to_dict(plan))


def faulty_plan(system):
    """A clone of the first single-fault plan of the seed strategy."""
    for pattern in system.strategy.patterns():
        if pattern:
            return clone(system.strategy.plan_for(pattern))
    raise AssertionError("strategy has no faulty plans")


def drop_routes_touching(plan, instance):
    """Remove routes of flows produced or consumed by ``instance`` so a
    placement corruption does not also trip route.endpoint-mismatch."""
    for name in list(plan.routes):
        try:
            flow = plan.augmented.flow(name)
        except KeyError:
            continue
        if instance in (flow.src, flow.dst):
            del plan.routes[name]


def multi_hop_flow(plan):
    """(flow_name, route) of some flow routed across at least one link."""
    for name in sorted(plan.routes):
        if len(plan.routes[name]) >= 2:
            return name, plan.routes[name]
    raise AssertionError("plan has no cross-node routes")


def rules_of(findings):
    return sorted({f.rule for f in findings})


# --------------------------------------------------------------- catalogue


def test_rule_catalogue_families():
    assert RULES
    for rule_id in RULES:
        family, _, name = rule_id.partition(".")
        assert family in ("sched", "place", "route", "mode", "bound")
        assert name


def test_findings_reference_catalogued_rules_only(system):
    plan = faulty_plan(system)
    plan.routes["phantom@r0"] = [sorted(system.topology.nodes)[0]]
    for finding in check_routes(plan, system.topology):
        assert finding.rule in RULES


# -------------------------------------------------------------- clean seed


def test_seed_strategy_verifies_clean(system):
    report = verify_strategy(system.strategy, system.topology,
                             config=system.config,
                             lane_model=system.lane_model,
                             budget=system.budget)
    assert report.findings == []
    assert report.ok
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 0
    assert "no findings" in report.render()


def test_verify_plan_clean_on_nominal(system):
    report = verify_plan(system.strategy.nominal, system.topology)
    assert report.findings == []


# ------------------------------------------------------------ sched rules


def test_overlapping_slots_trip_sched_overlap(system):
    plan = clone(system.strategy.nominal)
    node, ns = next(
        (n, ns) for n, ns in sorted(plan.schedule.node_schedules.items())
        if ns.entries
    )
    first = ns.entries[0]
    # Bypass NodeSchedule.add's validation, as a buggy synthesizer would.
    ns.entries.append(ScheduleEntry("intruder", first.start, first.finish))
    ns.entries.sort(key=lambda e: e.start)
    assert rules_of(check_schedule(plan)) == ["sched.overlap"]


def test_period_overrun_trips_sched_overrun(system):
    plan = clone(system.strategy.nominal)
    ns = next(ns for _, ns in sorted(plan.schedule.node_schedules.items())
              if ns.entries)
    period = plan.schedule.period
    ns.entries.append(ScheduleEntry("laggard", period, period + 10))
    assert rules_of(check_schedule(plan)) == ["sched.overrun"]


def test_late_input_trips_sched_precedence(system):
    plan = clone(system.strategy.nominal)
    flow = next(
        f for f in plan.augmented.flows
        if f.dst in plan.augmented.tasks
        and plan.schedule.slot_for(f.dst) is not None
        and f.name in plan.schedule.arrivals
    )
    slot = plan.schedule.slot_for(flow.dst)
    plan.schedule.arrivals[flow.name] = slot.start + 1
    assert rules_of(check_schedule(plan)) == ["sched.precedence"]


def test_missed_deadline_trips_sched_deadline(system):
    plan = clone(system.strategy.nominal)
    flow = next(f for f in plan.augmented.sink_flows()
                if f.deadline is not None
                and f.name in plan.schedule.arrivals)
    plan.schedule.arrivals[flow.name] = flow.deadline + 1
    assert rules_of(check_schedule(plan)) == ["sched.deadline"]


# ------------------------------------------------------------ place rules


def test_missing_assignment_trips_place_unassigned(system):
    plan = clone(system.strategy.nominal)
    instance = sorted(plan.augmented.tasks)[0]
    del plan.assignment[instance]
    drop_routes_touching(plan, instance)
    findings = (check_placement(plan, system.topology)
                + check_routes(plan, system.topology))
    assert rules_of(findings) == ["place.unassigned"]


def test_ghost_host_trips_place_unknown_node(system):
    plan = clone(system.strategy.nominal)
    instance = sorted(plan.augmented.tasks)[0]
    plan.assignment[instance] = "ghost-node"
    drop_routes_touching(plan, instance)
    findings = (check_placement(plan, system.topology)
                + check_routes(plan, system.topology))
    assert rules_of(findings) == ["place.unknown-node"]


def test_instance_on_faulty_node_trips_place_faulty_host(system):
    plan = faulty_plan(system)
    bad = sorted(plan.pattern)[0]
    instance = sorted(plan.augmented.tasks)[0]
    plan.assignment[instance] = bad
    drop_routes_touching(plan, instance)
    findings = (check_placement(plan, system.topology)
                + check_routes(plan, system.topology))
    assert rules_of(findings) == ["place.faulty-host"]


def test_colocated_replicas_trip_place_replica_collision(system):
    plan = clone(system.strategy.nominal)
    # Move a replica sibling onto its primary's node.
    moved = None
    for instance in sorted(plan.assignment):
        if instance.endswith("#r1"):
            sibling = instance[: -len("#r1")] + "#r0"
            if sibling in plan.assignment:
                plan.assignment[instance] = plan.assignment[sibling]
                moved = instance
                break
    assert moved is not None
    drop_routes_touching(plan, moved)
    findings = (check_placement(plan, system.topology)
                + check_routes(plan, system.topology))
    assert rules_of(findings) == ["place.replica-collision"]


# ------------------------------------------------------------ route rules


def test_route_through_faulty_node_trips_route_faulty_node(system):
    plan = faulty_plan(system)
    bad = sorted(plan.pattern)[0]
    name, route = multi_hop_flow(plan)
    # Detour mid-route through the faulty node; endpoints stay correct
    # and the full mesh has links for both new hops.
    plan.routes[name] = [route[0], bad, *route[1:]]
    assert rules_of(check_routes(plan, system.topology)) \
        == ["route.faulty-node"]


def test_missing_link_trips_route_broken_path(system):
    plan = clone(system.strategy.nominal)
    name, route = multi_hop_flow(plan)
    plan.routes[name] = [route[0], "ghost-node", *route[1:]]
    assert rules_of(check_routes(plan, system.topology)) \
        == ["route.broken-path"]


def test_wrong_first_hop_trips_route_endpoint_mismatch(system):
    plan = clone(system.strategy.nominal)
    name, route = multi_hop_flow(plan)
    wrong = next(n for n in sorted(system.topology.nodes)
                 if n not in (route[0], route[1]))
    plan.routes[name] = [wrong, *route[1:]]
    assert rules_of(check_routes(plan, system.topology)) \
        == ["route.endpoint-mismatch"]


def test_reservation_arithmetic_trips_route_overbooked(system):
    # Starved links make the seed's own (feasible) routes exceed the
    # reservable capacity — same arithmetic, shifted admission bar.
    plan = clone(system.strategy.nominal)
    topology = copy.deepcopy(system.topology)
    for link in topology.links.values():
        link.bandwidth_bps /= 1e12
    findings = check_routes(plan, topology)
    assert "route.overbooked" in rules_of(findings)
    assert rules_of(findings) == ["route.overbooked"]


def test_stray_route_is_a_warning_not_an_error(system):
    plan = clone(system.strategy.nominal)
    plan.routes["phantom@r0"] = [sorted(system.topology.nodes)[0]]
    report = Report(check_routes(plan, system.topology))
    assert report.rules_violated() == ["route.unknown-flow"]
    assert report.ok                       # warnings keep the plan sound
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 1


# ------------------------------------------------------------- mode rules


def test_single_replica_strategy_trips_mode_orphan_fetch():
    workload = industrial_workload()
    topology = full_mesh_topology(5, bandwidth=1e8)
    topology.place_endpoints_round_robin(workload.sources, workload.sinks)
    nominal = build_strategy(workload, topology, f=1)
    ladder = augmented_ladder(workload, AugmentConfig(replicas=1))
    strategy = Strategy(f=1, plans={
        p: build_plan(workload, p, topology, 1, ladder=ladder)
        for p in nominal.patterns()}, covered_nodes=nominal.covered_nodes)
    report = Report(check_mode_graph(strategy, topology))
    assert report.rules_violated() == ["mode.orphan-fetch"]
    assert not report.ok


def test_dropped_pattern_trips_mode_missing_plan(system):
    plans = {p: system.strategy.plan_for(p)
             for p in system.strategy.patterns()}
    victim = next(p for p in sorted(plans, key=sorted) if len(p) == 1)
    del plans[victim]
    crippled = Strategy(f=system.strategy.f, plans=plans,
                        covered_nodes=system.strategy.covered_nodes)
    findings = check_mode_graph(crippled, system.topology)
    assert rules_of(findings) == ["mode.missing-plan"]
    assert any(sorted(victim)[0] in f.subject for f in findings)


# ------------------------------------------------- report/runner plumbing


def test_require_clean_passes_clean_reports_through(system):
    report = Report()
    assert require_clean(report) is report


def test_require_clean_raises_on_errors():
    finding = Finding(rule="sched.overlap", severity=Severity.ERROR,
                      mode="nominal", subject="n0", message="boom")
    with pytest.raises(VerificationError) as exc:
        require_clean(Report([finding]))
    assert exc.value.report.errors == [finding]
    assert "1 error(s)" in str(exc.value)


def test_require_clean_lets_warnings_pass():
    finding = Finding(rule="route.unknown-flow", severity=Severity.WARNING,
                      mode="nominal", subject="f", message="stray")
    report = Report([finding])
    assert require_clean(report) is report


def test_report_render_names_the_rule(system):
    plan = faulty_plan(system)
    bad = sorted(plan.pattern)[0]
    name, route = multi_hop_flow(plan)
    plan.routes[name] = [route[0], bad, *route[1:]]
    rendered = Report(check_routes(plan, system.topology)).render()
    assert "route.faulty-node" in rendered
    assert "1 error(s)" in rendered


def test_prepare_strict_accepts_the_seed_scenario():
    sys_ = BTRSystem(
        industrial_workload(),
        full_mesh_topology(5, bandwidth=1e8),
        BTRConfig(f=1, seed=42),
    )
    budget = sys_.prepare(strict=True)
    assert budget.total_us > 0


def test_prepare_strict_computes_the_budget_once(monkeypatch):
    """The bound rules price recovery against the budget ``prepare()``
    computes; they do not compute a second one of their own."""
    import importlib
    calls = []
    for name in ("repro.core.runtime.budget", "repro.core.runtime.system"):
        module = importlib.import_module(name)
        real = module.compute_budget

        def counting(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "compute_budget", counting)
    sys_ = BTRSystem(
        industrial_workload(),
        full_mesh_topology(5, bandwidth=1e8),
        BTRConfig(f=1, seed=42),
    )
    budget = sys_.prepare(strict=True)
    assert len(calls) == 1
    assert sys_.budget is budget


# ---------------------------------------------------------------- the CLI


def test_cli_verify_passes_seed_scenario(capsys):
    from repro.cli import main
    rc = main(["verify", "--workload", "industrial",
               "--topology", "fullmesh:5", "--f", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no findings" in out


def test_cli_verify_rejects_missing_strategy_file(tmp_path, capsys):
    from repro.cli import main
    rc = main(["verify", "--strategy", str(tmp_path / "nope.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("repro verify: ") and err.count("\n") == 1
    assert "No such file or directory" in err and "nope.json" in err


def test_cli_verify_rules_prints_catalogue(capsys):
    from repro.cli import main
    assert main(["verify", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out

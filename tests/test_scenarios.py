"""Tests for the canned scenario library."""

import pytest

from repro import BTRConfig, BTRSystem
from repro.analysis import btr_verdict, smallest_sufficient_R
from repro.faults import (
    SCENARIOS,
    CrashFault,
    FaultScript,
    Injection,
    ScenarioError,
    paced,
    script_to_dict,
    single_fault,
    stage,
)
from repro.faults.scenarios import geo_scenario
from repro.net import full_mesh_topology, geo_topology
from repro.workload import industrial_workload, stretched_workload


@pytest.fixture(scope="module")
def f1_system():
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=83))
    system.prepare()
    return system


@pytest.fixture(scope="module")
def f2_system():
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(9, bandwidth=1e8),
                       BTRConfig(f=2, seed=83))
    system.prepare()
    return system


def test_unknown_scenario_rejected(f1_system):
    with pytest.raises(ScenarioError, match="unknown scenario"):
        stage("gremlins", f1_system)


def test_paced_double_requires_f2(f1_system):
    with pytest.raises(ScenarioError, match="f >= 2"):
        stage("paced_double", f1_system)


@pytest.mark.parametrize("name", [
    "single_commission", "single_crash", "single_omission",
    "checker_host_crash", "rogue_clock",
])
def test_node_fault_scenarios_recover(f1_system, name):
    scenario = stage(name, f1_system)
    assert scenario.description
    result = f1_system.run(36, scenario.script,
                           link_script=scenario.link_script or None)
    verdict = btr_verdict(result, R_us=f1_system.budget.total_us)
    assert verdict.holds, (name, [
        (v.flow, v.period_index, v.status) for v in verdict.violations[:4]])


def test_flood_plus_fault_needs_a_two_fault_budget(f2_system):
    """The flooder now counts against the fault budget (its endorsements
    make it attributable), so covering fire + a real fault is a two-fault
    attack and needs f >= 2."""
    scenario = stage("flood_plus_fault", f2_system)
    result = f2_system.run(48, scenario.script)
    verdict = btr_verdict(result, R_us=f2_system.budget.total_us)
    assert verdict.holds, [
        (v.flow, v.period_index, v.status) for v in verdict.violations[:4]]
    faulty = set(result.fault_times())
    correct = [fs for n, fs in result.final_fault_sets.items()
               if n not in faulty]
    assert all(fs <= faulty for fs in correct)


def test_single_fault_builder_defaults_and_refusals(f1_system):
    """4.4 periods in, on the first compromisable node; a node that is
    not a candidate is refused."""
    scenario = single_fault(f1_system, "crash")
    (injection,) = scenario.script
    assert injection.time == int(4.4 * f1_system.workload.period)
    assert injection.node == f1_system.compromisable_nodes()[0]
    assert scenario.description == f"one crash fault on {injection.node}"
    assert (script_to_dict(stage("single_crash", f1_system).script)
            == script_to_dict(scenario.script))
    protected = sorted(set(f1_system.topology.nodes)
                       - set(f1_system.compromisable_nodes()))[0]
    with pytest.raises(ScenarioError, match="not a candidate"):
        single_fault(f1_system, "crash", node=protected)


def test_paced_builder_spaces_faults_one_recovery_bound_apart(f2_system):
    R = f2_system.budget.total_us
    scenario = paced(f2_system, 2, start=100_000)
    assert [(i.time, i.node) for i in scenario.script] == [
        (100_000, f2_system.compromisable_nodes()[0]),
        (100_000 + R, f2_system.compromisable_nodes()[1])]
    assert (script_to_dict(stage("paced_double", f2_system).script)
            == script_to_dict(paced(f2_system, 2).script))
    with pytest.raises(ScenarioError, match="need 3 victims, only 2"):
        paced(f2_system, 3, victims=["n1", "n2"])


@pytest.mark.parametrize("adversary", [
    Injection(0, "n1", CrashFault()), [], "single_crash"])
def test_run_refuses_anything_but_a_fault_script(f1_system, adversary):
    """A run takes a FaultScript or nothing: any other value is refused,
    naming its type, before the run builds a simulator."""
    before = f1_system.sim
    with pytest.raises(TypeError, match=(
            f"takes a FaultScript or None, not {type(adversary).__name__}$")):
        f1_system.run(4, adversary)
    assert f1_system.sim is before
    assert len(f1_system.run(4, FaultScript()).fault_times()) == 0


def test_paced_double_recovers(f2_system):
    scenario = stage("paced_double", f2_system)
    assert len(scenario.script) == 2
    result = f2_system.run(60, scenario.script)
    verdict = btr_verdict(result, R_us=f2_system.budget.total_us)
    assert verdict.holds


@pytest.mark.parametrize("crash_at", [None, 1_500_000])
def test_bad_slots_no_fault_owns_have_no_sufficient_R(crash_at):
    """A dead link is not masked on a full mesh: a flow the plan routes
    over it goes missing with no fault injected (or before the only
    one), and no R excuses that, so there is no sufficient R."""
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=3))
    system.prepare()
    scenario = stage("link_death", system)
    assert scenario.link_script and not len(scenario.script)
    script = (scenario.script if crash_at is None else FaultScript([
        Injection(crash_at, system.compromisable_nodes()[0],
                  CrashFault())]))
    result = system.run(40, script, link_script=scenario.link_script)
    assert not btr_verdict(result, R_us=system.budget.total_us).holds
    assert smallest_sufficient_R(result) is None


def test_scenarios_registry_is_complete():
    for name in SCENARIOS:
        assert isinstance(name, str) and name
    assert len(SCENARIOS) >= 8


# --------------------------------------------------------- geo scenarios


@pytest.fixture(scope="module")
def geo_system():
    system = BTRSystem(stretched_workload(industrial_workload(), 10),
                       geo_topology(3, 4, bandwidth=1e8),
                       BTRConfig(f=1, seed=42))
    system.prepare()
    return system


def test_geo_shape_mismatch_is_refused(geo_system):
    with pytest.raises(ScenarioError, match="does not match"):
        geo_scenario(geo_system, 4, 4)
    with pytest.raises(ScenarioError, match="does not match"):
        geo_scenario(geo_system, 3, 20)


def test_geo_scenarios_refuse_flat_topology():
    system = BTRSystem(
        industrial_workload(), full_mesh_topology(5, bandwidth=1e8),
        BTRConfig(f=1, seed=1))
    with pytest.raises(ScenarioError, match="no regions"):
        geo_scenario(system, 3, 4)
    with pytest.raises(ScenarioError, match="no WAN links"):
        stage("wan_brownout", system)


def test_any_geo_name_pattern_stages(geo_system):
    scn = stage("geo:3x4", geo_system)
    assert scn.name == "geo:3x4"
    assert scn.script.injections
    assert scn.link_script
    victim = scn.script.injections[0].node
    browned = geo_system.topology.links[scn.link_script[0][1]]
    assert victim not in browned.endpoints
    with pytest.raises(ScenarioError):
        stage("geo:9x9", geo_system)

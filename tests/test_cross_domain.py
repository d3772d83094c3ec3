"""Cross-domain integration matrix: every domain workload × every fault
kind recovers within its bound, plus targeted resilience scenarios."""

import pytest

from repro import BTRConfig, BTRSystem
from repro.analysis import (
    btr_verdict,
    criticality_survival,
    smallest_sufficient_R,
)
from repro.faults import CrashFault, FaultScript, Injection
from repro.net import full_mesh_topology
from repro.workload import (
    automotive_workload,
    avionics_workload,
    industrial_workload,
    power_grid_workload,
)

DOMAINS = {
    "industrial": (industrial_workload, 7, 1e8, 1.0),
    "avionics": (avionics_workload, 8, 2e8, 2.0),
    "automotive": (automotive_workload, 8, 2e8, 1.0),
    "power_grid": (power_grid_workload, 8, 2e8, 1.0),
}


def prepared(domain):
    factory, n_nodes, bandwidth, speed = DOMAINS[domain]
    system = BTRSystem(
        factory(),
        full_mesh_topology(n_nodes, bandwidth=bandwidth, speed=speed),
        BTRConfig(f=1, seed=77),
    )
    system.prepare()
    return system


def fault_time(system):
    # Mid-run, aligned nowhere in particular.
    return 4 * system.workload.period + system.workload.period // 3


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_domain_plans_and_runs_clean(domain):
    system = prepared(domain)
    result = system.run(20)
    assert smallest_sufficient_R(result) == 0
    survival = criticality_survival(result)
    assert all(v == 1.0 for v in survival.values())


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("kind", ["commission", "crash", "omission"])
def test_domain_recovers_from_fault(domain, kind):
    from repro.faults import single_fault

    system = prepared(domain)
    result = system.run(
        32, single_fault(system, kind, at=fault_time(system)).script)
    verdict = btr_verdict(result, R_us=system.budget.total_us)
    assert verdict.holds, (
        domain, kind,
        [(v.flow, v.period_index, v.status) for v in verdict.violations[:4]],
    )
    faulty = set(result.fault_times())
    for node, fault_set in result.final_fault_sets.items():
        if node not in faulty:
            assert fault_set <= faulty, (domain, kind, node)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_checker_host_crash_is_masked_by_reconstruction(domain):
    """Kill the node hosting the most checkers: the audit-reconstruction
    fallback must keep outputs flowing until the mode switch isolates it,
    without implicating any starved innocent."""
    system = prepared(domain)
    plan = system.strategy.nominal
    candidates = system.compromisable_nodes()
    victim = max(
        candidates,
        key=lambda n: sum(1 for i in plan.instances_on(n)
                          if i.endswith("#c")),
    )
    result = system.run(32, FaultScript([
        Injection(fault_time(system), victim, CrashFault()),
    ]))
    verdict = btr_verdict(result, R_us=system.budget.total_us)
    assert verdict.holds, (
        domain,
        [(v.flow, v.period_index, v.status) for v in verdict.violations[:4]],
    )
    for node, fault_set in result.final_fault_sets.items():
        if node != victim:
            assert fault_set <= {victim}, (domain, node, sorted(fault_set))


def test_power_grid_validation():
    g = power_grid_workload(n_feeders=5)
    g.validate()
    assert len([s for s in g.sinks if s.startswith("breaker")]) == 5
    with pytest.raises(ValueError):
        power_grid_workload(n_feeders=0)

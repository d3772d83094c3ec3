"""Unit-level tests for baseline internals: voting edge cases, watchdog
timing, reset mechanics, the deployed plan's plumbing."""

import pytest

from repro.baselines import (
    BFTSystem,
    CrashRestartSystem,
    SelfStabilizingSystem,
    UnreplicatedSystem,
    majority,
)
from repro.faults import CrashFault, FaultScript, Injection
from repro.net import full_mesh_topology
from repro.sim import Custom, ms
from repro.workload import industrial_workload

FAULT_AT = 220_000


def prepared(cls, n_nodes=8, **kwargs):
    system = cls(industrial_workload(),
                 full_mesh_topology(n_nodes, bandwidth=1e8),
                 f=1, seed=7, **kwargs)
    system.prepare()
    return system


# ------------------------------------------------------------------- voting


def test_majority_plurality_not_strict_majority():
    # 2-2 tie on values: deterministic, smaller value wins.
    assert majority([7, 7, 3, 3]) == 3
    # Plurality suffices.
    assert majority([1, 1, 2, 3]) == 1


def test_bft_agent_requires_quorum_of_inputs():
    system = prepared(BFTSystem)
    agent = None
    result = system.run(4)
    # Fault-free: every sink slot released exactly once per period.
    outputs = result.outputs()
    keys = [(o.flow, o.period_index) for o in outputs]
    assert len(keys) == len(set(keys))


# ----------------------------------------------------------------- watchdog


def test_watchdog_reboot_happens_once_and_is_traced():
    system = prepared(CrashRestartSystem, watchdog_periods=2,
                      reboot_periods=1)
    victim = system.compromisable_nodes()[0]
    result = system.run(24, FaultScript([
        Injection(FAULT_AT, victim, CrashFault()),
    ]))
    reboots = [e for e in result.trace.of_kind(Custom)
               if e.label == "reboot"]
    assert len(reboots) == 1
    assert reboots[0].data["node"] == victim
    # Reboot fires after watchdog (2 periods) + reboot delay (1 period).
    period = industrial_workload().period
    assert reboots[0].time >= FAULT_AT + 2 * period
    assert reboots[0].time <= FAULT_AT + 5 * period


def test_watchdog_quiet_without_crash():
    system = prepared(CrashRestartSystem)
    result = system.run(12)
    assert not [e for e in result.trace.of_kind(Custom)
                if e.label == "reboot"]


# ------------------------------------------------------------------- resets


def test_selfstab_reset_cadence():
    system = prepared(SelfStabilizingSystem, reset_every=5)
    result = system.run(20)
    resets = [e for e in result.trace.of_kind(Custom)
              if e.label == "global_reset"]
    period = industrial_workload().period
    assert [e.time for e in resets] == [
        5 * period, 10 * period, 15 * period, 20 * period]


def test_selfstab_reset_repairs_crash_only_once_per_cycle():
    system = prepared(SelfStabilizingSystem, reset_every=6)
    victim = system.compromisable_nodes()[0]
    result = system.run(20, FaultScript([
        Injection(FAULT_AT, victim, CrashFault()),
    ]))
    # Node is alive again after the first reset following the crash.
    assert not system.agents[victim].node.crashed


# ------------------------------------------------------------- baseline plan


def test_baseline_plan_routes_and_next_hop():
    system = prepared(UnreplicatedSystem)
    plan = system.plan
    for flow in plan.augmented.flows:
        route = plan.routes.get(flow.name)
        assert route, flow.name
        if len(route) > 1:
            assert plan.next_hop(flow.name, route[0]) == route[1]
            assert plan.next_hop(flow.name, route[-1]) is None
        assert plan.next_hop(flow.name, "ghost") is None


def test_baseline_instances_partition_tasks():
    system = prepared(UnreplicatedSystem)
    hosted = []
    for node in system.topology.nodes:
        hosted += system.plan.instances_on(node)
    assert sorted(hosted) == sorted(industrial_workload().tasks)


def test_baseline_compromisable_excludes_endpoints():
    system = prepared(UnreplicatedSystem)
    protected = set(system.topology.endpoint_map.values())
    assert not set(system.compromisable_nodes()) & protected


def test_baseline_runs_are_deterministic():
    def one():
        system = prepared(BFTSystem)
        result = system.run(8)
        return [(o.time, o.flow, o.value) for o in result.outputs()]

    assert one() == one()


def test_zz_checker_arbitrates_with_own_inputs():
    """ZZ's checker re-executes on replica disagreement and forwards the
    correct value (masking) — exercised end-to-end via a commission fault
    targeting a replica host."""
    from repro.baselines import ZZSystem
    from repro.faults import CommissionFault
    from repro.workload import sensor_reading, compute_output

    system = prepared(ZZSystem, n_nodes=10)
    # Target a node hosting only replicas — never a checker. (A corrupted
    # checker host is ZZ's documented blind spot: it is the single
    # forwarding point, which is precisely what BTR's audit flows fix.)
    assignment = system.plan.assignment
    hosts_checker = {host for inst, host in assignment.items()
                     if inst.endswith("#c")}
    victim = next(
        (host for inst, host in sorted(assignment.items())
         if inst.split("#")[1].startswith("r")
         and host in system.compromisable_nodes()
         and host not in hosts_checker),
        None,
    )
    if victim is None:
        pytest.skip("no checker-free replica host in this placement")
    result = system.run(24, FaultScript([
        Injection(FAULT_AT, victim, CommissionFault()),
    ]))

    def oracle(flow_base, k):
        wl = result.workload
        values = {}
        for s in wl.sources:
            values[s] = sensor_reading(s, k)
        for t in wl.topological_order():
            values[t] = compute_output(
                t, k, [values[f.src] for f in wl.inputs_of(t)])
        return values[wl.flow(flow_base).src]

    wrong = [o for o in result.outputs()
             if o.value != oracle(o.flow, o.period_index)]
    assert wrong == []  # the recompute masked every corrupted value

"""E5 — The kR worst case and the R := D/f budgeting rule.

Paper claim (§3): "if an adversary controls k ≤ f nodes, he can trigger a
new fault every R seconds and thus potentially force the system to produce
bad outputs for kR seconds; thus ... it seems prudent to set R := D/f".

We run the pacing adversary for k = 1, 2 on an f = 2 deployment and check
(a) each individual recovery stays within R, (b) the *total* disrupted time
stays within k·R, and (c) a plant whose damage deadline D was budgeted as
k·R survives, while one sized assuming a single fault (D = R) does not
survive the k = 2 attack.
"""

import pytest

from harness import one_shot, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import (
    classify_slots,
    format_table,
    recovery_times,
)
from repro.faults import paced, single_fault
from repro.net import full_mesh_topology
from repro.sim import to_seconds
from repro.workload import industrial_workload

N_PERIODS = 60
F = 2


def run_experiment():
    data = {}
    for k in (1, 2):
        system = BTRSystem(industrial_workload(),
                           full_mesh_topology(9, bandwidth=1e8),
                           BTRConfig(f=F, seed=17))
        system.prepare()
        R = system.budget.total_us
        attack = paced(system, k, start=200_000, interval=R)
        result = system.run(N_PERIODS, attack.script)
        per_fault = recovery_times(result)
        disrupted = [s for s in classify_slots(result)
                     if s.status != "correct" and not s.excused]
        data[k] = {
            "R": R,
            "per_fault": per_fault,
            "total": sum(per_fault.values()),
            "disrupted": len(disrupted),
        }
    return data


def test_e5_adversary_pacing(benchmark):
    data = one_shot(benchmark, run_experiment)
    rows = []
    for k in (1, 2):
        d = data[k]
        rows.append([
            f"k={k}",
            f"{to_seconds(max(d['per_fault'].values())):.3f}s",
            f"{to_seconds(d['R']):.3f}s",
            f"{to_seconds(d['total']):.3f}s",
            f"{to_seconds(k * d['R']):.3f}s",
            d["disrupted"],
        ])
    write_result("e5_adversary_pacing", format_table(
        f"E5: pacing adversary (new fault every R), f={F} "
        f"(industrial workload, 9-node mesh)",
        ["attack", "worst single recovery", "bound R", "total disruption",
         "bound k*R", "disrupted slots"],
        rows,
    ))
    for k in (1, 2):
        d = data[k]
        assert len(d["per_fault"]) == k
        for node, t in d["per_fault"].items():
            assert t <= d["R"], f"k={k}: fault on {node} recovered in {t}"
        assert d["total"] <= k * d["R"]
    # More faults, more total disruption — the kR accumulation is real.
    assert data[2]["total"] > data[1]["total"]


def test_e5_budget_rule_protects_the_plant(benchmark):
    """The same vessel, sized for D = 2kR, survives the paced attack under
    BTR but is destroyed when the fault is never isolated (the unbounded-
    recovery case the budgeting rule guards against)."""
    from repro.analysis import WaterTank, commands_from_slots
    from repro.baselines import UnreplicatedSystem

    def valve_commands(result):
        slots = sorted(
            (s for s in classify_slots(result, excused_flows={})
             if s.flow == "valve_cmd"),
            key=lambda s: s.period_index,
        )
        return commands_from_slots([s.status for s in slots])

    def run():
        workload = industrial_workload()
        period_s = workload.period / 1e6

        system = BTRSystem(workload, full_mesh_topology(9, bandwidth=1e8),
                           BTRConfig(f=F, seed=17))
        system.prepare()
        R = system.budget.total_us
        periods_R = max(1, R // workload.period)
        # Vessel capacity: D = 2*k*R of unchecked inflow above setpoint.
        capacity_periods = 2 * F * periods_R

        def tank():
            t = WaterTank()
            t.level_max = (t.setpoint
                           + t.inflow * period_s * capacity_periods)
            return t

        # BTR under the paced attack aimed at the controller's hosts.
        ctrl_hosts = [
            system.strategy.nominal.assignment[i]
            for i in ("plant_ctrl#r0", "plant_ctrl#r1", "plant_ctrl#c")
            if system.strategy.nominal.assignment[i]
            in system.compromisable_nodes()
        ]
        attack = paced(system, F, start=200_000, interval=R,
                       victims=ctrl_hosts)
        btr_result = system.run(N_PERIODS, attack.script)
        btr_safe = tank().run_sequence(period_s,
                                       valve_commands(btr_result))

        # Unreplicated: one fault on the controller host, never isolated.
        # Run long enough for the unbounded outage to exhaust the vessel's
        # D = 2kR capacity (the whole point of the comparison).
        baseline = UnreplicatedSystem(
            workload, full_mesh_topology(9, bandwidth=1e8), f=F, seed=17)
        baseline.prepare()
        victim = baseline.plan.assignment["plant_ctrl"]
        base_periods = 4 + capacity_periods + 30
        base_result = baseline.run(base_periods, single_fault(
            baseline, "commission", at=200_000, node=victim).script)
        base_safe = tank().run_sequence(period_s,
                                        valve_commands(base_result))
        return btr_safe, base_safe

    btr_safe, base_safe = one_shot(benchmark, run)
    write_result("e5_budget_rule", (
        f"\nE5b: vessel sized for D = 2kR of outage —\n"
        f"     survives the k={F} paced attack under BTR: {btr_safe}\n"
        f"     survives one unisolated fault (unreplicated): {base_safe}\n"
    ))
    assert btr_safe
    assert not base_safe

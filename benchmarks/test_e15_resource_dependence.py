"""E15 — "The difficulty of BTR depends on the amount of resources".

Paper claim (§3.1): "if there are plenty of resources, the system can
afford enough replicas for fault tolerance, which of course simplifies
recovery ... However, recall that CPS are often resource-constrained and
tend to have strong timeliness requirements, so we expect the 'easy' cases
to be less common in practice."

Sweep the resource envelope (node speed) for a fixed workload and fault:
resource-rich deployments keep everything and recover fast; as resources
shrink, fault modes shed criticality; below a floor, planning fails
outright. The experiment charts that difficulty gradient.
"""

import pytest

from harness import one_shot, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table, smallest_sufficient_R
from repro.core.planner.plan import PlanningError
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.sim import to_seconds
from repro.workload import Criticality, avionics_workload

SPEEDS = (2.0, 1.0, 0.6, 0.45, 0.3)
N_PERIODS = 60
FAULT_AT = 110_000


def run_point(speed: float):
    workload = avionics_workload(n_ife_channels=2, ife_wcet=3000)
    system = BTRSystem(
        workload,
        full_mesh_topology(8, bandwidth=2e8, speed=speed),
        BTRConfig(f=1, seed=63),
    )
    try:
        budget = system.prepare()
    except PlanningError:
        return {"plans": None}
    shed_modes = sum(
        1 for p in system.strategy.patterns()
        if Criticality.D not in system.strategy.plan_for(p).kept_levels
    )
    result = system.run(N_PERIODS, single_fault(
        system, "commission", at=FAULT_AT).script)
    return {
        "plans": len(system.strategy),
        "budget": budget.total_us,
        "shed_modes": shed_modes,
        "recovery": smallest_sufficient_R(result),
    }


def test_e15_resource_dependence(benchmark):
    data = one_shot(benchmark, lambda: {s: run_point(s) for s in SPEEDS})
    rows = []
    for speed in SPEEDS:
        d = data[speed]
        if d["plans"] is None:
            rows.append([f"{speed:.2f}x", "UNSCHEDULABLE", "-", "-", "-"])
            continue
        rows.append([
            f"{speed:.2f}x", d["plans"],
            f"{d['shed_modes']} of {d['plans']}",
            f"{to_seconds(d['budget']):.3f}s",
            f"{to_seconds(d['recovery']):.3f}s",
        ])
    write_result("e15_resource_dependence", format_table(
        "E15: BTR difficulty vs CPU resources (avionics+IFE, 8-node mesh, "
        "f=1, one commission fault)",
        ["node speed", "plans", "modes shedding D", "promised R",
         "measured recovery"],
        rows,
    ))
    # Rich end: everything kept, recovery within budget.
    rich = data[SPEEDS[0]]
    assert rich["plans"] is not None
    assert rich["shed_modes"] == 0
    assert 0 < rich["recovery"] <= rich["budget"]
    # Difficulty gradient: shedding modes never decrease as CPUs slow.
    shed_counts = [data[s]["shed_modes"] for s in SPEEDS
                   if data[s]["plans"] is not None]
    assert all(a <= b for a, b in zip(shed_counts, shed_counts[1:]))
    # Poor end: the floor exists (shedding or outright unschedulable).
    floor = data[SPEEDS[-1]]
    assert floor["plans"] is None or floor["shed_modes"] > 0
    # Every schedulable point still honours Definition 3.1's bound.
    for speed in SPEEDS:
        d = data[speed]
        if d["plans"] is not None:
            assert d["recovery"] <= d["budget"], speed

"""E11 (ablation) — Plan-distance-aware strategy construction.

Paper claim (§4.1): if plan B follows plan A after a fault on X, "B must
obviously reassign the tasks that were running on X, but it should
otherwise change as little as possible. Any extra reassignments will
consume resources (e.g., bandwidth for transferring state) and can thus
prolong recovery."

Ablation: build the strategy with and without parent-seeded placement
(``minimize_distance``), compare (a) state bits shipped by single-fault
transitions, (b) instances moved, and (c) measured recovery time through
an actual fault.
"""

import pytest

from harness import FAULT_AT, one_shot, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table, smallest_sufficient_R, traffic_bits
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.sim import to_seconds
from repro.workload import avionics_workload

N_PERIODS = 60


def build(minimize: bool) -> BTRSystem:
    system = BTRSystem(
        avionics_workload(),  # big task states: migrations are expensive
        full_mesh_topology(8, bandwidth=2e8),
        BTRConfig(f=1, seed=51, minimize_distance=minimize),
    )
    system.prepare()
    return system


def transition_cost(system: BTRSystem):
    total_bits = 0
    total_moves = 0
    count = 0
    for pattern in system.strategy.patterns():
        if not pattern:
            continue
        parent = pattern - {sorted(pattern)[-1]}
        d = system.strategy.transition_distance(parent, pattern)
        total_bits += d.state_bits
        total_moves += d.moved_instances
        count += 1
    return total_bits, total_moves, count


def run_experiment():
    data = {}
    for label, minimize in (("distance-aware", True), ("naive", False)):
        system = build(minimize)
        bits, moves, transitions = transition_cost(system)
        result = system.run(
            N_PERIODS, single_fault(system, "crash", at=110_000).script)
        data[label] = {
            "bits": bits,
            "moves": moves,
            "transitions": transitions,
            "recovery": smallest_sufficient_R(result),
            "state_traffic": traffic_bits(result).get("state", 0),
        }
    return data


def test_e11_plan_distance_ablation(benchmark):
    data = one_shot(benchmark, run_experiment)
    rows = []
    for label in ("distance-aware", "naive"):
        d = data[label]
        rows.append([
            label,
            f"{d['moves'] / d['transitions']:.1f}",
            f"{d['bits'] / d['transitions'] / 1000:.1f} kbit",
            f"{d['state_traffic'] / 1000:.1f} kbit",
            f"{to_seconds(d['recovery']):.3f}s",
        ])
    write_result("e11_ablation_plan_distance", format_table(
        "E11: strategy construction with vs without plan-distance "
        "minimization (avionics workload, 8-node mesh, f=1)",
        ["planner", "instances moved / transition",
         "state shipped / transition", "state traffic in crash run",
         "measured recovery"],
        rows,
    ))
    aware, naive = data["distance-aware"], data["naive"]
    # The headline: distance-aware transitions move less and ship less.
    assert aware["moves"] < naive["moves"]
    assert aware["bits"] < naive["bits"]
    # And the runtime consequence: no more state traffic during recovery.
    assert aware["state_traffic"] <= naive["state_traffic"]
    assert aware["recovery"] <= naive["recovery"] * 1.5

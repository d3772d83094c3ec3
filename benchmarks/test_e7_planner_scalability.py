"""E7 — Offline planning cost: strategy size and wall time.

Paper claims (§4.1): the planner computes a plan per anticipated fault
pattern ("computing a strategy is a bit like building a game tree"), which
is combinatorial in (nodes, f). Because planning is the one *offline*
component, Python wall-clock time is a representative relative-cost metric
here (everything else in the library is measured in simulated time). We
sweep cluster size and fault budget and report plans computed and planning
time, uncached: every row is the planner every ``prepare()`` uses.

``REPRO_SWEEP=smoke`` selects the reduced sweep.
"""

import time

from harness import one_shot, planning_row, record, smoke, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table
from repro.faults import strategy_size
from repro.net import full_mesh_topology
from repro.workload import industrial_workload

SWEEP_FULL = [(6, 1), (8, 1), (10, 1), (12, 1), (8, 2), (10, 2)]
SWEEP_SMOKE = [(6, 1), (8, 1), (8, 2)]


def sweep():
    return SWEEP_SMOKE if smoke() else SWEEP_FULL


def plan_once(n_nodes: int, f: int):
    """One timed prepare(); returns (system, wall seconds)."""
    system = BTRSystem(
        industrial_workload(),
        full_mesh_topology(n_nodes, bandwidth=1e8),
        BTRConfig(f=f, seed=3),
    )
    start = time.perf_counter()
    system.prepare()
    elapsed = time.perf_counter() - start
    record("planner", planning_row(system), label=f"e7:n{n_nodes}:f{f}")
    return system, elapsed


def run_experiment():
    rows = []
    data = []
    for n_nodes, f in sweep():
        system, serial_s = plan_once(n_nodes, f)
        n_plans = len(system.strategy)
        eligible = len(system.strategy.covered_nodes)
        expected = strategy_size(eligible, f)
        rows.append([
            n_nodes, f, eligible, n_plans,
            f"{serial_s:.2f}s",
            f"{1000 * serial_s / n_plans:.0f}ms",
        ])
        data.append((n_nodes, f, n_plans, expected, serial_s))
    return rows, data


def test_e7_planner_scalability(benchmark):
    rows, data = one_shot(benchmark, run_experiment)
    write_result("e7_planner_scalability", format_table(
        "E7: offline planner cost vs cluster size and fault budget "
        "(industrial workload, full mesh)",
        ["nodes", "f", "eligible", "plans", "serial", "per plan"],
        rows,
    ))
    for n_nodes, f, n_plans, expected, elapsed in data:
        # A complete strategy: one plan per anticipated pattern.
        assert n_plans == expected, (n_nodes, f)
    # Cost grows with the pattern count (the game-tree blow-up is real).
    by_config = {(n, f): (p, e) for n, f, p, _, e in data}
    if (10, 2) in by_config:
        assert by_config[(10, 2)][0] > by_config[(10, 1)][0]
        assert by_config[(12, 1)][0] > by_config[(6, 1)][0]
    else:  # smoke sweep
        assert by_config[(8, 2)][0] > by_config[(8, 1)][0]


"""E7 — Offline planning cost: strategy size, wall time, and speedups.

Paper claims (§4.1): the planner computes a plan per anticipated fault
pattern ("computing a strategy is a bit like building a game tree"), which
is combinatorial in (nodes, f). Because planning is the one *offline*
component, Python wall-clock time is a representative relative-cost metric
here (everything else in the library is measured in simulated time). We
sweep cluster size and fault budget and report plans computed, serial
planning time, the process fan-out speedup (``repro.perf``), and the
symmetry-memo speedup — asserting along the way that fan-out output is
byte-identical to serial (parallelism is an optimisation, never a
semantic).

Environment knobs: ``REPRO_SWEEP=smoke`` selects the reduced sweep;
``REPRO_E7_JOBS=N`` pins the worker count of the parallel column
(default: all cores, min 2 so the pool path is always exercised).
"""

import os
import time

from harness import one_shot, planning_row, record, smoke, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table
from repro.core.planner import strategy_to_json
from repro.faults import strategy_size
from repro.net import full_mesh_topology
from repro.workload import industrial_workload

SWEEP_FULL = [(6, 1), (8, 1), (10, 1), (12, 1), (8, 2), (10, 2)]
SWEEP_SMOKE = [(6, 1), (8, 1), (8, 2)]


def sweep():
    return SWEEP_SMOKE if smoke() else SWEEP_FULL


def parallel_jobs() -> int:
    value = os.environ.get("REPRO_E7_JOBS")
    if value:
        return max(2, int(value))
    return max(2, os.cpu_count() or 1)


def plan_once(n_nodes: int, f: int, jobs: int = 1, memo: bool = False):
    """One timed prepare(); returns (system, wall seconds)."""
    system = BTRSystem(
        industrial_workload(),
        full_mesh_topology(n_nodes, bandwidth=1e8),
        BTRConfig(f=f, seed=3, planner_jobs=jobs, symmetry_memo=memo),
    )
    start = time.perf_counter()
    system.prepare()
    elapsed = time.perf_counter() - start
    record("planner", planning_row(system),
           label=f"e7:n{n_nodes}:f{f}:j{jobs}" + (":memo" if memo else ""))
    return system, elapsed


def run_experiment():
    jobs = parallel_jobs()
    rows = []
    data = []
    for n_nodes, f in sweep():
        serial_sys, serial_s = plan_once(n_nodes, f)
        par_sys, par_s = plan_once(n_nodes, f, jobs=jobs)
        memo_sys, memo_s = plan_once(n_nodes, f, memo=True)
        # Fan-out is an optimisation, never a semantic: byte-identical.
        assert (strategy_to_json(par_sys.strategy)
                == strategy_to_json(serial_sys.strategy)), (n_nodes, f)
        n_plans = len(serial_sys.strategy)
        eligible = len(serial_sys.strategy.covered_nodes)
        expected = strategy_size(eligible, f)
        memo_stats = memo_sys.plan_stats
        rows.append([
            n_nodes, f, eligible, n_plans,
            f"{serial_s:.2f}s",
            f"{1000 * serial_s / n_plans:.0f}ms",
            f"{par_s:.2f}s ({serial_s / par_s:.1f}x)",
            f"{memo_s:.2f}s ({serial_s / memo_s:.1f}x, "
            f"{memo_stats.plans_computed} computed)",
        ])
        data.append((n_nodes, f, n_plans, expected, serial_s))
    return rows, data, jobs


def test_e7_planner_scalability(benchmark):
    rows, data, jobs = one_shot(benchmark, run_experiment)
    write_result("e7_planner_scalability", format_table(
        "E7: offline planner cost vs cluster size and fault budget "
        f"(industrial workload, full mesh; parallel = {jobs} workers, "
        "memo = symmetry memoisation)",
        ["nodes", "f", "eligible", "plans", "serial", "per plan",
         f"jobs={jobs}", "memo"],
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


def test_e7_single_plan_cost(benchmark):
    """Per-plan cost in isolation (augment + place + synthesize)."""
    from repro.core.planner import build_plan
    from repro.net import Router

    workload = industrial_workload()
    topology = full_mesh_topology(10, bandwidth=1e8)
    topology.place_endpoints_round_robin(workload.sources, workload.sinks)
    router = Router(topology)

    plan = benchmark(lambda: build_plan(
        workload, frozenset(), topology, router, f=1))
    assert plan.schedule.feasible

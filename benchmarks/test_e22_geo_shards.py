"""E22 — Geo scale: multi-region throughput, byte-identical traces.

The benchmark runs multi-region geo deployments (``geo_topology``, 3–6
regions x 20–30 nodes/region, WAN links three orders of magnitude slower
than local ones) under the shape-validated ``geo:RxM`` scenarios, with
the industrial workload stretched to WAN-scale periods
(``stretched_workload``).

Columns per case:

* the **engine** — absolute events/s on the milestone trace, recorded
  with the host's core count and interpreter version in
  ``BENCH_sim.json``;
* the **pool sweep** — ``run_sweep_pool`` fanning seeds over worker
  processes vs the in-process serial sweep. Its speedup scales with
  available cores and is gated only on multi-core machines (a 1-core
  runner records ~1.0x honestly instead of faking parallelism).

The inherited invariant is asserted hardest: for every scenario x seed
the **full-mode trace is byte-identical** (fingerprint,
``events_executed``, census) to the digest the per-message single-loop
path generated before it was deleted
(``tests/golden/engine_digests.json``), and pool workers must reproduce
the serial per-seed fingerprints exactly.

``REPRO_SWEEP=smoke`` — one small case (3x8), no speedup assertions
(byte-equality gates always enforced).
"""

import os

from harness import (
    golden,
    harness_cache_dir,
    one_shot,
    record,
    smoke,
    write_result,
)
from repro import BTRSystem, Deployment
from repro.analysis import format_table
from repro.faults.scenarios import stage
from repro.perf.batchcore import run_sweep
from repro.perf.pool import run_sweep_pool
from repro.perf.timing import Stopwatch

#: (regions, nodes_per_region, seeds, n_periods, pool). The 4x30 and
#: 6x20 cases are the >=100-node deployments.
SWEEP_FULL = [
    (3, 20, (42, 43), 8, False),
    (6, 20, (42,), 8, False),
    (4, 30, (42, 43), 8, True),
]
SWEEP_SMOKE = [(3, 8, (42,), 6, True)]

#: Extra seeds for the pool sweep (parallelism needs enough work per
#: worker for the fork + rebuild overhead to amortise).
POOL_SEEDS = (42, 43, 44, 45)

#: Pool sweeps are gated only where parallelism is physically possible.
POOL_GATE = 1.5


def _deployment(regions: int, npr: int, seed: int = 42) -> Deployment:
    """The industrial workload at WAN-scale periods on a geo topology
    (default WAN latency)."""
    return Deployment("industrial", f"geo:{regions}x{npr}", seed=seed,
                      stretch=10)


def _prepared(regions: int, npr: int, seed: int,
              trace_mode: str) -> BTRSystem:
    system = _deployment(regions, npr, seed).system(
        cache=harness_cache_dir(), trace_mode=trace_mode)
    system.prepare()
    return system


def _timed_run(system, scenario_name: str, n_periods: int):
    scenario = stage(scenario_name, system)
    watch = Stopwatch()
    result = system.run(n_periods, adversary=scenario.script,
                        link_script=scenario.link_script or None)
    return result, watch.elapsed_s()


def run_case(regions, npr, seeds, n_periods, pool):
    scenario_name = f"geo:{regions}x{npr}"
    n_nodes = regions * npr

    # --- The gate: full traces byte-identical to the per-message
    # digests for every seed. ---
    for seed in seeds:
        system = _prepared(regions, npr, seed, "full")
        result, _ = _timed_run(system, scenario_name, n_periods)
        golden.assert_matches(system, result, scenario_name)

    # --- The clock: milestone trace, first seed; same events and census
    # as that seed's digest. ---
    miles_sys = _prepared(regions, npr, seeds[0], "milestones")
    miles_res, wall_s = _timed_run(miles_sys, scenario_name, n_periods)
    want = golden.expected(
        golden.cell_key(miles_sys, scenario_name, n_periods))
    events = miles_sys.sim.events_executed
    assert events == want["events_executed"]
    assert miles_res.trace.kind_counts() == want["kind_counts"]

    row = {
        "scenario": scenario_name,
        "regions": regions,
        "nodes_per_region": npr,
        "n_nodes": n_nodes,
        "f": 1,
        "n_periods": n_periods,
        "seeds": len(seeds),
        "sim_events": events,
        "wall_milestones_s": round(wall_s, 4),
        "events_per_s_milestones": (round(events / wall_s)
                                    if wall_s else None),
        "digest_match": True,
    }

    # --- The pool: per-seed fingerprints must survive the process
    # boundary; the speedup column scales with available cores. ---
    if pool:
        proto = _prepared(regions, npr, 42, "milestones")
        watch = Stopwatch()
        serial = run_sweep(proto, POOL_SEEDS, n_periods,
                           scenario=scenario_name)
        serial_s = watch.elapsed_s()
        serial_fps = {run.seed: run.fingerprint for run in serial}
        cores = os.cpu_count() or 1
        watch = Stopwatch()
        out = run_sweep_pool(_deployment(regions, npr), POOL_SEEDS,
                             workers=min(len(POOL_SEEDS), max(cores, 2)),
                             n_periods=n_periods, scenario=scenario_name,
                             cache=harness_cache_dir())
        pool_s = watch.elapsed_s()
        for entry in out["runs"]:
            assert entry["fingerprint"] == serial_fps[entry["seed"]], (
                f"{scenario_name} seed={entry['seed']}: pool worker "
                f"diverged from the serial sweep")
        row.update({
            "pool_seeds": len(POOL_SEEDS),
            "pool_workers": out["workers"],
            "pooled": out["pooled"],
            "cores": cores,
            "wall_serial_sweep_s": round(serial_s, 4),
            "wall_pool_sweep_s": round(pool_s, 4),
            "pool_speedup": round(serial_s / pool_s, 2) if pool_s else None,
        })
    return row


def run_experiment():
    sweep = SWEEP_SMOKE if smoke() else SWEEP_FULL
    cases = []
    for regions, npr, seeds, n_periods, pool in sweep:
        case = run_case(regions, npr, seeds, n_periods, pool)
        record("sim", case, label=f"e22:{case['scenario']}")
        cases.append(case)
    return cases


def test_e22_geo_shards(benchmark):
    cases = one_shot(benchmark, run_experiment)

    rows = [[
        c["scenario"], c["n_nodes"], f"{c['sim_events']:,}",
        f"{c['wall_milestones_s']:.2f}s",
        f"{c['events_per_s_milestones']:,}",
        (f"{c['pool_speedup']:.2f}x@{c['pool_workers']}w"
         if c.get("pool_speedup") else "-"),
        "matches",
    ] for c in cases]
    write_result("e22_geo_shards", format_table(
        "E22: geo scale (stretched industrial workload on geo "
        "topologies; milestone traces, absolute events/s of this host; "
        "full traces asserted byte-identical to the per-message "
        "single-loop digests per scenario x seed)",
        ["scenario", "nodes", "sim events", "wall", "ev/s", "pool",
         "legacy digest"],
        rows,
    ))

    for c in cases:
        assert c["digest_match"]
    if not smoke():
        assert any(c["n_nodes"] >= 100 for c in cases), (
            "full sweep must include a >=100-node deployment")
        # Pool parallelism is gated only where it physically exists;
        # 1-core runners record the honest ~1x instead.
        for c in cases:
            if c.get("pooled") and c.get("cores", 1) >= 2:
                assert c["pool_speedup"] >= POOL_GATE, (
                    f"{c['scenario']}: pool sweep {c['pool_speedup']}x "
                    f"< {POOL_GATE}x on {c['cores']} cores")

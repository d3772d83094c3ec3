"""E19 — Batched emitters: fan-out scale throughput, byte-identical traces.

E17 measures the work *inside* each event; the batched emitters
(``repro.perf.batchcore``) restructure the event stream itself: periodic
heartbeat/sensor fan-outs become one vectorised step per (sender,
arrival) group with authenticator batching, and multi-seed sweeps share
frozen plans and key directories in one process (``run_sweep``). The invariant is inherited
from E17 and checked harder: for every scenario × seed in the matrix the
**full-mode trace is byte-identical** (fingerprint, ``events_executed``,
census) to the digest a message-per-heap-event engine generated
(``tests/golden/engine_digests.json``), and the sweep path must
reproduce freshly planned per-seed runs exactly.

The benchmark runs the E17 scenario set on a geo-scale mesh (the
workload class the batched emitters exist for — model-checking campaigns
and wide topologies where per-period flooding is O(n²) while plan
execution is O(n)). Columns per scenario: absolute events/sec on the
milestone trace (the benchmark configuration), the sweep throughput, and
the coalescing ratio; recorded with the host's core count and
interpreter version in ``BENCH_sim.json``, never asserted. A last column
counts the settled heartbeat re-floods the milestone run paid per sender
instead of per copy: asserted > 0 there and 0 on the full trace, so the
deferral cannot switch itself off unseen.

``REPRO_SWEEP=smoke`` — single scenario, small mesh.
"""

from harness import (
    golden,
    harness_cache_dir,
    one_shot,
    record,
    smoke,
    sweep_btr,
    write_result,
)
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table
from repro.faults.scenarios import stage
from repro.net import full_mesh_topology
from repro.perf import trace_fingerprint
from repro.perf.timing import Stopwatch
from repro.workload import industrial_workload

#: (scenario, n_nodes, f, n_periods) — the E17 scenario set on a
#: geo-scale mesh: steady broadcast traffic, the audit fallback, and
#: adversarial evidence load (where the batched evidence fan-out must
#: not change a byte under flood pressure).
SWEEP_FULL = [
    ("single_commission", 15, 1, 30),
    ("checker_host_crash", 15, 1, 30),
    ("flood_plus_fault", 15, 2, 30),
]
SWEEP_SMOKE = [("single_commission", 7, 1, 20)]

SEEDS_FULL = (42, 43)
SEEDS_SMOKE = (42,)


def _prepared(name: str, n_nodes: int, f: int, seed: int, trace_mode: str):
    system = BTRSystem(
        industrial_workload(),
        full_mesh_topology(n_nodes, bandwidth=1e8),
        BTRConfig(f=f, seed=seed, cache=harness_cache_dir(),
                  trace_mode=trace_mode),
    )
    system.prepare()
    return system, stage(name, system)


def _timed_run(system, scenario, n_periods: int):
    watch = Stopwatch()
    result = system.run(n_periods, adversary=scenario.script,
                        link_script=scenario.link_script or None)
    return result, watch.elapsed_s()


def run_case(name: str, n_nodes: int, f: int, n_periods: int, seed: int):
    """One scenario × seed: the byte-equality gate, then the clocks."""
    # --- The gate: the full trace equals the per-message digest. ---
    full_sys, full_scn = _prepared(name, n_nodes, f, seed, "full")
    full_res, _ = _timed_run(full_sys, full_scn, n_periods)
    golden.assert_matches(full_sys, full_res, name)
    events = full_sys.sim.events_executed
    full_deferred = full_sys.batch_runtime.stats()["deferred_refloods"]

    # --- The clocks: milestone trace, the benchmark configuration. ---
    bat_sys, bat_scn = _prepared(name, n_nodes, f, seed, "milestones")
    bat_res, bat_s = _timed_run(bat_sys, bat_scn, n_periods)
    assert bat_sys.sim.events_executed == events
    assert bat_res.trace.kind_counts() == full_res.trace.kind_counts()
    assert (golden.milestone_reprs(bat_res.trace)
            == golden.milestone_reprs(full_res.trace))
    fp_miles = trace_fingerprint(bat_res.trace)

    # --- The sweep path reproduces freshly planned per-seed runs. ---
    sweep_seeds = (seed, seed + 1000)
    sweep = sweep_btr(
        sweep_seeds, scenario=name, n_periods=n_periods,
        n_nodes=n_nodes, f=f,
        config=BTRConfig(f=f, seed=seed, cache=harness_cache_dir(),
                         trace_mode="milestones"),
    )
    assert sweep[0].fingerprint == fp_miles, (
        f"{name} seed={seed}: sweep diverged from the fresh-system run"
    )
    sib_sys, sib_scn = _prepared(name, n_nodes, f, sweep_seeds[1],
                                 "milestones")
    sib_res, _ = _timed_run(sib_sys, sib_scn, n_periods)
    assert sweep[1].fingerprint == trace_fingerprint(sib_res.trace), (
        f"{name}: sibling seed {sweep_seeds[1]} diverged from a freshly "
        f"planned system"
    )
    sweep_wall = sum(run.wall_s for run in sweep)
    sweep_events = sum(run.result.metrics["gauges"]["sim_events_executed"]
                       for run in sweep)

    batch_stats = bat_sys.batch_runtime.stats()
    return {
        "scenario": name,
        "n_nodes": n_nodes,
        "f": f,
        "n_periods": n_periods,
        "seed": seed,
        "sim_events": events,
        "wall_milestones_s": round(bat_s, 4),
        "events_per_s_milestones": (round(events / bat_s)
                                    if bat_s else None),
        "sweep_seeds": len(sweep_seeds),
        "sweep_events_per_s": (round(sweep_events / sweep_wall)
                               if sweep_wall else None),
        "batches_fired": batch_stats["batches_fired"],
        "entries_batched": batch_stats["entries_batched"],
        "deferred_refloods": batch_stats["deferred_refloods"],
        "deferred_refloods_full": full_deferred,
        "digest_match": True,
    }


def run_experiment():
    sweep = SWEEP_SMOKE if smoke() else SWEEP_FULL
    seeds = SEEDS_SMOKE if smoke() else SEEDS_FULL
    cases = []
    for name, n_nodes, f, n_periods in sweep:
        for seed in seeds:
            case = run_case(name, n_nodes, f, n_periods, seed)
            record("sim", case, label=f"e19:{name}:s{seed}")
            cases.append(case)
    return cases


def test_e19_batched_core(benchmark):
    cases = one_shot(benchmark, run_experiment)

    rows = [[
        c["scenario"], c["n_nodes"], c["seed"], c["sim_events"],
        f"{c['events_per_s_milestones']:,}", f"{c['sweep_events_per_s']:,}",
        f"{c['entries_batched']}/{c['batches_fired']}",
        c["deferred_refloods"],
        "matches",
    ] for c in cases]
    write_result("e19_batched_core", format_table(
        "E19: batched emitters (industrial workload, geo-scale full "
        "mesh; milestone traces, absolute events/s of this host; full "
        "traces asserted byte-identical to the per-message digests)",
        ["scenario", "n", "seed", "sim events", "ev/s", "ev/s sweep",
         "batched entries/events", "deferred re-floods", "legacy digest"],
        rows,
    ))

    for c in cases:
        assert c["digest_match"]
        # Batching must actually coalesce: strictly fewer heap events
        # than batched entries (otherwise the emitters degenerated to
        # the one-event-per-message shape).
        assert c["batches_fired"] < c["entries_batched"]
        # Settled heartbeat re-floods are paid per sender on milestone
        # traces, and never deferred where every hop is a trace row.
        assert c["deferred_refloods"] > 0
        assert c["deferred_refloods_full"] == 0

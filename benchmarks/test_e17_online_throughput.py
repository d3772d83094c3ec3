"""E17 — Online-runtime throughput, and proof the engine is the one the
committed digests describe.

This experiment measures the *online* simulation hot path that dominates
every other experiment's wall-clock: statement canonicalization caching,
the signature verify memo, and the trace recording modes. One invariant:
for every scenario benchmarked here the full-mode trace is asserted
**byte-identical** (fingerprint, ``events_executed``, event census) to
the digest the per-message legacy path generated before it was deleted
(``tests/golden/engine_digests.json``), across seeds. Throughput is
recorded as absolute events/s — with the host's core count and
interpreter version — in ``BENCH_sim.json``, never asserted (wall-clock
on shared runners is advice, not ground truth).

Columns per scenario: online events/sec, HMAC signs+verifies, verify-memo
hit rate, and wall time for two trace modes —

* ``full``   — full trace (the digest check);
* ``miles``  — milestone trace (the benchmark configuration).

``REPRO_SWEEP=smoke`` — single scenario, fewer periods/seeds.
"""

from harness import (
    golden,
    harness_cache_dir,
    one_shot,
    record,
    smoke,
    write_result,
)
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table
from repro.faults.scenarios import stage
from repro.net import full_mesh_topology
from repro.perf.timing import Stopwatch
from repro.workload import industrial_workload

#: (scenario, n_nodes, f, n_periods) — scenarios chosen to stress the
#: memo differently: steady broadcast traffic (commission), the audit
#: fallback (checker crash), and adversarial verification load (the
#: evidence flood, where the memo must win on correct traffic while
#: never caching the flooder's junk).
SWEEP_FULL = [
    ("single_commission", 7, 1, 40),
    ("checker_host_crash", 7, 1, 40),
    ("flood_plus_fault", 7, 2, 40),
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
                        link_script=scenario.link_script)
    return result, watch.elapsed_s()


def run_case(name: str, n_nodes: int, f: int, n_periods: int, seed: int):
    """One scenario × seed: both trace modes + the digest check."""
    full_sys, full_scn = _prepared(name, n_nodes, f, seed, "full")
    fast_sys, fast_scn = _prepared(name, n_nodes, f, seed, "milestones")

    full_res, full_s = _timed_run(full_sys, full_scn, n_periods)
    fast_res, fast_s = _timed_run(fast_sys, fast_scn, n_periods)

    # The core guarantee: every event, every field, in order, as the
    # per-message legacy path recorded them.
    golden.assert_matches(full_sys, full_res, name)
    # The simulation itself is identical in both trace modes, and
    # milestone mode loses no census or milestone information.
    events = full_sys.sim.events_executed
    assert fast_sys.sim.events_executed == events
    assert fast_res.trace.kind_counts() == full_res.trace.kind_counts()
    assert (golden.milestone_reprs(fast_res.trace)
            == golden.milestone_reprs(full_res.trace))

    directory = fast_sys.directory
    memo = directory.verify_memo.stats()
    # The memo actually absorbs repeat verifications...
    assert memo["hits"] > 0, f"{name}: verify memo never hit"
    # ...and HMAC work is conserved where it must be: every memo miss is
    # a real verification.
    assert directory.verifies >= memo["misses"]

    return {
        "scenario": name,
        "n_nodes": n_nodes,
        "f": f,
        "n_periods": n_periods,
        "seed": seed,
        "sim_events": events,
        "trace_events_full": len(full_res.trace),
        "trace_events_milestones": len(fast_res.trace),
        "wall_full_s": round(full_s, 4),
        "wall_milestones_s": round(fast_s, 4),
        "events_per_s_full": round(events / full_s) if full_s else None,
        "events_per_s_milestones": (round(events / fast_s)
                                    if fast_s else None),
        "signs": directory.signs,
        "verifies": directory.verifies,
        "memo_hits": memo["hits"],
        "memo_misses": memo["misses"],
        "memo_hit_rate": memo["hit_rate"],
        "digest_match": True,
    }


def run_experiment():
    sweep = SWEEP_SMOKE if smoke() else SWEEP_FULL
    seeds = SEEDS_SMOKE if smoke() else SEEDS_FULL
    cases = []
    for name, n_nodes, f, n_periods in sweep:
        for seed in seeds:
            case = run_case(name, n_nodes, f, n_periods, seed)
            record("sim", case, label=f"e17:{name}:s{seed}")
            cases.append(case)
    return cases


def test_e17_online_throughput(benchmark):
    cases = one_shot(benchmark, run_experiment)

    rows = [[
        c["scenario"], c["seed"], c["sim_events"],
        f"{c['events_per_s_full']:,}", f"{c['events_per_s_milestones']:,}",
        f"{c['trace_events_full']} -> {c['trace_events_milestones']}",
        c["verifies"], f"{100 * c['memo_hit_rate']:.0f}%",
        "matches",
    ] for c in cases]
    write_result("e17_online_throughput", format_table(
        "E17: online runtime (industrial workload, full mesh; full = "
        "full trace, miles = milestone trace; absolute events/s of this "
        "host)",
        ["scenario", "seed", "sim events", "ev/s full", "ev/s miles",
         "trace events full->miles", "verifies", "memo hits",
         "legacy digest"],
        rows,
    ))

    for c in cases:
        assert c["digest_match"]
        # Milestone mode must prune the big per-hop event classes.
        assert (c["trace_events_milestones"]
                < 0.25 * c["trace_events_full"]), c["scenario"]

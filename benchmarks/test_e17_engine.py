"""E17 — The online engine across scale: byte-identical traces from a
7-node full mesh to 120-node geo deployments.

The paper's online half is cheap because the hard thinking happens
offline; this experiment checks that the engine stays right as
deployments grow. It runs every cell pinned in
``tests/golden/engine_digests.json`` (digests a per-message legacy
engine generated before it was deleted), from ``fullmesh:7`` to
``geo:4x30`` (regions of local meshes joined by WAN links three orders
of magnitude slower, the industrial workload stretched x10 to WAN-scale
periods), through the job ``python -m tests.golden engine`` runs
(:func:`tests.golden.engine_job`): the full trace against its digest,
then a ``milestones`` run against its census and the per-cell facts of
:func:`tests.golden.broken_facts`. Any line that check prints fails it.

Its own check runs first, before any pool forks a heap other cells
have filled: ``run_sweep`` with one worker reproduces freshly planned
runs (its first seed the cell's own milestones run, its second a newly
planned system on that seed), with one worker per core it returns the
same fingerprints, and on >= 2 cores the median of ``SWEEP_PAIRS``
alternating pairs is at least ``POOL_GATE`` times faster pooled. That
ratio, this experiment's only wall clock, is recorded in
``BENCH_sim.json`` with the host's core count and interpreter version.

``REPRO_SWEEP=smoke`` — one ``fullmesh:7`` and one ``geo:3x8`` cell;
the ``geo:3x8`` cell carries the sweep check, whose ``pool_speedup`` is
null (at that size the pooled call times the fork, not the pool); no
pool gate.
"""

import dataclasses
import gc
import os

from harness import golden, one_shot, record, smoke, write_result
from repro.analysis import format_table
from repro.perf import run_sweep
from repro.perf.timing import Stopwatch
from repro.sim.trace import trace_fingerprint

#: Per sweep: the pinned cells it runs (None: every one) and the cell
#: that carries the sweep check.
SWEEPS = {
    "full": (None, "geo:4x30@geo4x30/industrialx10/f1/p8/s42"),
    "smoke": (("single_commission@fullmesh7/industrial/f1/p20/s42",
               "geo:3x8@geo3x8/industrialx10/f1/p6/s42"),
              "geo:3x8@geo3x8/industrialx10/f1/p6/s42"),
}

#: Seeds per sweep, from the cell's own: enough work per worker for the
#: fork to amortise.
SWEEP_SEEDS = 4

#: Pool sweeps are gated only where parallelism is physically possible.
POOL_GATE = 1.5

#: One-worker / pooled sweep pairs the full sweep times, alternating; it
#: gates the median pair's ratio (one pair, timed alone, read 1.43x on a
#: 2-core host whose other tenants share its cores).
SWEEP_PAIRS = 3


def _prepared(cell, seed):
    deployment = dataclasses.replace(cell.deployment, seed=seed)
    system = deployment.system(trace_mode="milestones")
    system.prepare()
    return system


def sweep_check(cell) -> tuple:
    """The sweep check of the module docstring over :data:`SWEEP_PAIRS`
    pairs (one in the smoke sweep, which records no ratio): the median
    pair's wall times and ratio, and the one-worker sweep's fingerprints
    (the first is the cell's own milestones run's)."""
    seed = cell.deployment.seed
    seeds = tuple(range(seed, seed + SWEEP_SEEDS))
    sweep = dict(n_periods=cell.n_periods, scenario=cell.scenario)
    proto = _prepared(cell, seed)
    cores = os.cpu_count() or 1
    pairs = []
    for _ in range(1 if smoke() else SWEEP_PAIRS):
        watch = Stopwatch()
        serial = run_sweep(proto, seeds, **sweep)
        serial_s = watch.elapsed_s()
        fingerprints = [run["fingerprint"] for run in serial["runs"]]
        # The workers fork this heap, proto included, so neither side
        # pays for a prepare(). This finds next to nothing, yet without
        # it the speedup read lower (docs/PERFORMANCE.md, "Multi-seed sweeps").
        gc.collect()
        watch = Stopwatch()
        out = run_sweep(proto, seeds,
                        workers=min(len(seeds), max(cores, 2)), **sweep)
        pool_s = watch.elapsed_s()
        for run, expected in zip(out["runs"], fingerprints):
            assert run["fingerprint"] == expected, (
                f"{cell} seed={run['seed']}: pool worker diverged from the "
                f"one-worker sweep")
        pairs.append((serial_s / pool_s, serial_s, pool_s))
    del proto
    fresh = golden.run_scenario(_prepared(cell, seeds[1]), cell)
    assert fingerprints[1] == trace_fingerprint(fresh.trace), (
        f"{cell}: sibling seed {seeds[1]} diverged from a freshly planned "
        f"system")
    speedup, serial_s, pool_s = sorted(pairs)[len(pairs) // 2]
    return {
        "pool_workers": out["workers"],
        "pooled": out["pooled"],
        "cores": cores,
        "wall_serial_sweep_s": round(serial_s, 4),
        "wall_pool_sweep_s": round(pool_s, 4),
        # A smoke sweep is over before the workers have paid for their
        # fork, so its ratio times the fork, not the pool (0.57-0.87 at
        # geo:3x8): it is recorded as null.
        "pool_speedup": None if smoke() else round(speedup, 2),
        "pool_speedups": None if smoke() else [round(p[0], 2) for p in pairs],
    }, fingerprints


def run_experiment() -> list:
    cells, sweep = SWEEPS["smoke" if smoke() else "full"]
    timing, fingerprints = sweep_check(golden.parse_cell(sweep))
    jobs = golden.recompute(golden.engine_job, cells or golden.engine_keys())
    rows, problems = [], []
    for key, job in sorted(jobs.items(), key=lambda item: (
            item[1]["counts"]["n_nodes"], item[0])):
        cell = golden.parse_cell(key)
        rows.append({
            "scenario": cell.scenario, "topology": cell.deployment.topology,
            "f": cell.deployment.f, "n_periods": cell.n_periods,
            "seed": cell.deployment.seed,
            "sim_events": job["digest"]["events_executed"], **job["counts"],
            "digest_match": job["digest"] == golden.expected(key),
            **(timing if key == sweep else {}),
        })
        record("sim", rows[-1], label=f"e17:{key}")
        problems += golden.compare({key: job["digest"]},
                                   {key: golden.expected(key)})
        problems += golden.broken_facts(key, job)
    assert not problems, "\n".join(problems)
    assert fingerprints[0] == jobs[sweep]["milestones"]["fingerprint"], (
        f"{sweep}: sweep diverged from the fresh-system run")
    return rows


def test_e17_engine(benchmark):
    rows = one_shot(benchmark, run_experiment)
    write_result("e17_engine", format_table(
        "E17: the online engine across scale (industrial workload, "
        "stretched x10 on geo; every full trace byte-identical to its "
        "committed digest)",
        ["topology", "scenario", "f", "periods", "seed", "sim events",
         "trace full->miles", "memo hits", "entries/batches", "deferred",
         "pool"],
        [[r["topology"], r["scenario"], r["f"], r["n_periods"], r["seed"],
          f"{r['sim_events']:,}",
          f"{r['trace_events_full']} -> {r['trace_events_milestones']}",
          f"{100 * r['memo_hit_rate']:.0f}%",
          f"{r['entries_batched']}/{r['batches_fired']}",
          r["deferred_refloods"],
          f"{r['pool_speedup']:.2f}x@{r['pool_workers']}w"
          if r.get("pool_speedup") else "-"]
         for r in rows],
    ))

    if not smoke():
        assert any(r["n_nodes"] >= 100 for r in rows), (
            "full sweep must include a >=100-node deployment")
        # 1-core runners record the honest ~1x instead.
        for r in rows:
            if r.get("pooled") and r["cores"] >= 2:
                assert r["pool_speedup"] >= POOL_GATE, (
                    f"{r['scenario']}: pool sweep {r['pool_speedup']}x "
                    f"< {POOL_GATE}x on {r['cores']} cores")

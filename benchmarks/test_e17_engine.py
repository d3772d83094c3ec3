"""E17 — The online engine across scale: byte-identical traces from a
7-node full mesh to 120-node geo deployments.

The paper's online half is cheap because the hard thinking happens
offline; this experiment checks that the engine stays right as
deployments grow. It runs the cells pinned in
``tests/golden/engine_digests.json`` (digests a per-message legacy
engine generated before it was deleted) over one scale column:
``fullmesh:7`` and ``fullmesh:15`` under the industrial workload, then
``geo:RxM`` deployments (3–6 regions of 20–30 nodes, WAN links three
orders of magnitude slower than local ones, the workload stretched x10
to WAN-scale periods).

Every cell, at every scale, gets the same checks:

* the full trace equals the committed digest (fingerprint,
  ``events_executed``, census);
* a ``milestones`` run (the trace mode sweeps, mc and fuzz use) executes
  the same events with the same census and milestone events, in under a
  quarter of the full trace's rows;
* the verify memo hits, and every memo miss is a real HMAC verification;
* the batched emitters coalesce: fewer batch events than entries;
* settled heartbeat re-floods are paid per sender on the milestones run
  and never on the full trace.

One check runs at one scale: the sweep check. ``run_sweep`` with one
worker reproduces freshly planned runs — its first seed the cell's own
milestones run, its second a newly planned system on that seed — and
with one worker per core it returns the same fingerprints; on >= 2 cores
the pooled sweep is at least ``POOL_GATE`` times faster.

The pool speedup, this experiment's only wall clock, is recorded in
``BENCH_sim.json`` with the host's core count and interpreter version;
what a run costs in host time is E23's to record.

``REPRO_SWEEP=smoke`` — one ``fullmesh:7`` and one ``geo:3x8`` cell;
the ``geo:3x8`` cell carries the sweep check, whose ``pool_speedup`` is
null (at that size the pooled call times the fork, not the pool); no
pool gate.
"""

import dataclasses
import gc
import os

from harness import (
    golden,
    one_shot,
    record,
    smoke,
    write_result,
)
from repro.analysis import format_table
from repro.perf import run_sweep
from repro.perf.timing import Stopwatch
from repro.sim.trace import trace_fingerprint

#: Per sweep: the scale column as (topology, periods), smallest first —
#: every pinned cell at one of them runs — and the scale whose first
#: cell carries the sweep check.
SWEEPS = {
    "full": {
        "scales": (("fullmesh:7", 40), ("fullmesh:15", 30),
                   ("geo:3x20", 8), ("geo:6x20", 8), ("geo:4x30", 8)),
        "sweep": "geo:4x30",
    },
    "smoke": {
        "scales": (("fullmesh:7", 20), ("geo:3x8", 6)),
        "sweep": "geo:3x8",
    },
}

#: Seeds per sweep, from the cell's own: enough work per worker for the
#: fork to amortise.
SWEEP_SEEDS = 4

#: Pool sweeps are gated only where parallelism is physically possible.
POOL_GATE = 1.5


def _prepared(cell, mode: str, seed=None):
    deployment = cell.deployment
    if seed is not None:
        deployment = dataclasses.replace(deployment, seed=seed)
    system = deployment.system(trace_mode=mode)
    system.prepare()
    return system


def _run(system, cell):
    # A dropped run is freed by reference counting, so this finds next
    # to nothing; without it and the collection before the pool forks,
    # the geo:4x30 pool speedup read lower (docs/PERFORMANCE.md,
    # "Multi-seed sweeps").
    gc.collect()
    return golden.run_scenario(system, cell)


def run_cell(key: str, sweep: bool) -> dict:
    """One pinned cell: the full run against its digest, the milestones
    run against the full one, and the sweep check if ``sweep``."""
    cell = golden.parse_cell(key)
    system = _prepared(cell, "full")
    result = _run(system, cell)
    found, reprs = golden.digest_and_reprs(system, result)
    assert found == golden.expected(key), key
    full_rows = len(result.trace)
    full_deferred = system.batch_runtime.stats()["deferred_refloods"]
    del system, result  # millions of rows at geo scale

    miles_sys = _prepared(cell, "milestones")
    miles_res = _run(miles_sys, cell)
    events = found["events_executed"]
    assert miles_sys.sim.events_executed == events, key
    assert miles_res.trace.kind_counts() == found["kind_counts"], key
    assert golden.milestone_reprs(miles_res.trace) == reprs, key
    assert len(miles_res.trace) < 0.25 * full_rows, key
    directory = miles_sys.directory
    memo = directory.verify_memo.stats()
    assert memo["hits"] > 0, f"{key}: verify memo never hit"
    # Every memo miss is a real verification.
    assert directory.verifies >= memo["misses"], key
    batch = miles_sys.batch_runtime.stats()
    # Fewer heap events than batched entries, or the emitters have
    # degenerated to one event per message.
    assert batch["batches_fired"] < batch["entries_batched"], key
    assert batch["deferred_refloods"] > 0, key
    assert full_deferred == 0, key

    row = {
        "scenario": cell.scenario,
        "topology": cell.deployment.topology,
        "n_nodes": len(miles_sys.topology.nodes),
        "f": cell.deployment.f,
        "n_periods": cell.n_periods,
        "seed": cell.deployment.seed,
        "sim_events": events,
        "trace_events_full": full_rows,
        "trace_events_milestones": len(miles_res.trace),
        "signs": directory.signs,
        "verifies": directory.verifies,
        "memo_hits": memo["hits"],
        "memo_misses": memo["misses"],
        "memo_hit_rate": memo["hit_rate"],
        "batches_fired": batch["batches_fired"],
        "entries_batched": batch["entries_batched"],
        "deferred_refloods": batch["deferred_refloods"],
        "deferred_refloods_full": full_deferred,
        "digest_match": True,
    }
    if sweep:
        fingerprint = trace_fingerprint(miles_res.trace)
        # The pooled sweep forks this heap: drop the run first.
        del miles_sys, miles_res, directory
        row.update(sweep_check(cell, fingerprint))
    return row


def sweep_check(cell, fingerprint: str) -> dict:
    """``run_sweep`` reproduces freshly planned runs: with one worker its
    first seed is the cell's own milestones run (``fingerprint``) and
    its second a new system planned on that seed; with one worker per
    core every seed's fingerprint is the one-worker sweep's. Returns the
    two sweeps' wall times and their ratio."""
    seed = cell.deployment.seed
    seeds = tuple(range(seed, seed + SWEEP_SEEDS))
    sweep = dict(n_periods=cell.n_periods, scenario=cell.scenario)
    proto = _prepared(cell, "milestones")
    watch = Stopwatch()
    serial = run_sweep(proto, seeds, **sweep)
    serial_s = watch.elapsed_s()
    fingerprints = [run["fingerprint"] for run in serial["runs"]]
    assert fingerprints[0] == fingerprint, (
        f"{cell}: sweep diverged from the fresh-system run")
    # The workers fork this heap, proto included, so neither side pays
    # for a prepare() (see _run).
    gc.collect()
    cores = os.cpu_count() or 1
    watch = Stopwatch()
    out = run_sweep(proto, seeds, workers=min(len(seeds), max(cores, 2)),
                    **sweep)
    pool_s = watch.elapsed_s()
    for run, expected in zip(out["runs"], fingerprints):
        assert run["fingerprint"] == expected, (
            f"{cell} seed={run['seed']}: pool worker diverged from the "
            f"one-worker sweep")
    del proto
    fresh = _run(_prepared(cell, "milestones", seeds[1]), cell)
    assert fingerprints[1] == trace_fingerprint(fresh.trace), (
        f"{cell}: sibling seed {seeds[1]} diverged from a freshly planned "
        f"system")
    return {
        "pool_seeds": len(seeds),
        "pool_workers": out["workers"],
        "pooled": out["pooled"],
        "cores": cores,
        "wall_serial_sweep_s": round(serial_s, 4),
        "wall_pool_sweep_s": round(pool_s, 4),
        # A smoke sweep is over before the workers have paid for their
        # fork, so its ratio times the fork, not the pool (0.57-0.87 at
        # geo:3x8): it is recorded as null.
        "pool_speedup": (round(serial_s / pool_s, 2)
                         if pool_s and not smoke() else None),
    }


def run_experiment() -> list:
    sweep = SWEEPS["smoke" if smoke() else "full"]
    cells = {key: golden.parse_cell(key) for key in golden.engine_keys()}
    rows = []
    for topology, n_periods in sweep["scales"]:
        keys = [key for key, cell in cells.items()
                if (cell.deployment.topology, cell.n_periods)
                == (topology, n_periods)]
        scale = [run_cell(key, topology == sweep["sweep"] and key == keys[0])
                 for key in keys]
        for key, row in zip(keys, scale):
            record("sim", row, label=f"e17:{key}")
        rows += scale
    return rows


def test_e17_engine(benchmark):
    rows = one_shot(benchmark, run_experiment)
    write_result("e17_engine", format_table(
        "E17: the online engine across scale (industrial workload, "
        "stretched x10 on geo; every full trace byte-identical to its "
        "committed digest)",
        ["topology", "scenario", "seed", "sim events", "trace full->miles",
         "memo hits", "entries/batches", "deferred", "pool"],
        [[r["topology"], r["scenario"], r["seed"], f"{r['sim_events']:,}",
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

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

Two checks run at one scale each: at the sweep scale, ``run_sweep``'s
first seed equals the cell's own milestones run and its sibling seed a
freshly planned system; at the pool scale, ``run_sweep_pool``'s per-seed
fingerprints equal the serial sweep's, and on >= 2 cores the pool is at
least ``POOL_GATE`` times faster.

The pool speedup, this experiment's only wall clock, is recorded in
``BENCH_sim.json`` with the host's core count and interpreter version;
what a run costs in host time is E23's to record.

``REPRO_SWEEP=smoke`` — one ``fullmesh:7`` and one ``geo:3x8`` cell,
which carry the sweep and pool checks; no pool gate.
"""

import dataclasses
import gc
import os

from harness import (
    golden,
    harness_cache_dir,
    one_shot,
    record,
    smoke,
    write_result,
)
from repro.analysis import format_table
from repro.perf import trace_fingerprint
from repro.perf.batchcore import run_sweep
from repro.perf.pool import run_sweep_pool
from repro.perf.timing import Stopwatch

#: Per sweep: the scale column as (topology, periods), smallest first —
#: every pinned cell at one of them runs — and the scales that carry the
#: sweep check and the pool check.
SWEEPS = {
    "full": {
        "scales": (("fullmesh:7", 40), ("fullmesh:15", 30),
                   ("geo:3x20", 8), ("geo:6x20", 8), ("geo:4x30", 8)),
        "sweep": "fullmesh:15", "pool": "geo:4x30",
    },
    "smoke": {
        "scales": (("fullmesh:7", 20), ("geo:3x8", 6)),
        "sweep": "fullmesh:7", "pool": "geo:3x8",
    },
}

#: The sweep check runs ``run_sweep`` over (seed, seed + SIBLING).
SIBLING = 1000

#: Pool sweep seeds: enough work per worker for the fork to amortise.
POOL_SEEDS = (42, 43, 44, 45)

#: Pool sweeps are gated only where parallelism is physically possible.
POOL_GATE = 1.5


def _prepared(cell, mode: str, seed=None):
    deployment = cell.deployment
    if seed is not None:
        deployment = dataclasses.replace(deployment, seed=seed)
    system = deployment.system(cache=harness_cache_dir(), trace_mode=mode)
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
        sweep_check(cell, trace_fingerprint(miles_res.trace))
    return row


def sweep_check(cell, fingerprint: str) -> None:
    """``run_sweep`` reproduces freshly planned runs: its first seed the
    cell's own milestones run (``fingerprint``), its sibling seed a new
    system on that seed."""
    seed = cell.deployment.seed
    sibling = seed + SIBLING
    runs = run_sweep(_prepared(cell, "milestones"), (seed, sibling),
                     cell.n_periods, scenario=cell.scenario)
    assert runs[0].fingerprint == fingerprint, (
        f"{cell}: sweep diverged from the fresh-system run")
    fresh = _run(_prepared(cell, "milestones", sibling), cell)
    assert runs[1].fingerprint == trace_fingerprint(fresh.trace), (
        f"{cell}: sibling seed {sibling} diverged from a freshly planned "
        f"system")


def pool_check(cell) -> dict:
    """``run_sweep_pool``'s per-seed fingerprints survive the process
    boundary; its speedup over the serial sweep scales with cores."""
    proto = _prepared(cell, "milestones", POOL_SEEDS[0])
    watch = Stopwatch()
    serial = {run.seed: run.fingerprint for run in run_sweep(
        proto, POOL_SEEDS, cell.n_periods, scenario=cell.scenario)}
    serial_s = watch.elapsed_s()
    # The workers fork this heap, proto included, so neither side pays
    # for a prepare() (see _run).
    gc.collect()
    cores = os.cpu_count() or 1
    watch = Stopwatch()
    out = run_sweep_pool(
        proto, POOL_SEEDS, workers=min(len(POOL_SEEDS), max(cores, 2)),
        n_periods=cell.n_periods, scenario=cell.scenario)
    pool_s = watch.elapsed_s()
    for entry in out["runs"]:
        assert entry["fingerprint"] == serial[entry["seed"]], (
            f"{cell} seed={entry['seed']}: pool worker diverged from the "
            f"serial sweep")
    return {
        "pool_seeds": len(POOL_SEEDS),
        "pool_workers": out["workers"],
        "pooled": out["pooled"],
        "cores": cores,
        "wall_serial_sweep_s": round(serial_s, 4),
        "wall_pool_sweep_s": round(pool_s, 4),
        "pool_speedup": round(serial_s / pool_s, 2) if pool_s else None,
    }


def run_experiment() -> list:
    sweep = SWEEPS["smoke" if smoke() else "full"]
    cells = {key: golden.parse_cell(key) for key in golden.engine_keys()}
    rows = []
    for topology, n_periods in sweep["scales"]:
        keys = [key for key, cell in cells.items()
                if (cell.deployment.topology, cell.n_periods)
                == (topology, n_periods)]
        scale = [run_cell(key, topology == sweep["sweep"]) for key in keys]
        if topology == sweep["pool"]:
            scale[0].update(pool_check(cells[keys[0]]))
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

"""E18 — Bounded model checking: certify one config, break another.

Two campaigns on the smallest config the placement rules admit
(``pipeline`` on ``fullmesh:4``, f=1 — the f+1 replicas plus the
checker need three distinct non-victim hosts, leaving one node as the
victim):

* **certify** — R is the prepared budget; the campaign must exhaust the
  bounded space with zero violations and no truncation, and the report
  must come out byte-identical at ``workers=1`` and ``workers=2`` (the
  determinism claim ``repro check`` makes on the tin).
* **break** — R is deliberately under-provisioned to 30 ms (a
  commission fault on this config recovers in ~40–76 ms); the campaign
  must produce a minimised counterexample whose replay through the
  normal run path confirms the recovery-bound violation.

Each campaign appends one row to ``mc_stats.jsonl`` (paths explored,
dedup hit-rate, pruning ratio, expectation label);
``tools/run_experiments.py`` aggregates the stream into
``BENCH_mc.json``. What a search costs in host time is E23's
``search_n4`` to record.

``REPRO_SWEEP=smoke`` — tighter bounds (fewer ticks/kinds).
"""

import json

from harness import one_shot, record, smoke, write_result
from repro import BTRConfig
from repro.analysis import format_table
from repro.mc import CheckParams, run_campaign
from repro.net import full_mesh_topology
from repro.workload import pipeline_workload


def _params(**kw) -> CheckParams:
    if smoke():
        defaults = dict(kinds=("crash", "commission"), ticks=1,
                        max_depth=1, branch=2, max_paths=40)
    else:
        defaults = dict(kinds=("crash", "commission"), ticks=2,
                        max_depth=2, branch=3, max_paths=120)
    defaults.update(kw)
    return CheckParams(**defaults)


def _campaign(params: CheckParams):
    return run_campaign(pipeline_workload(),
                        full_mesh_topology(4, bandwidth=1e8),
                        BTRConfig(f=1), params)


def _row(name: str, report: dict, stats) -> dict:
    totals = report["totals"]
    paths = totals["paths"]
    return {
        "campaign": name,
        "certified": report["certified"],
        "cells": totals["cells"],
        "paths": paths,
        "distinct_states": totals["distinct_states"],
        "dedup_hits": totals["dedup_hits"],
        "dedup_hit_rate": totals["dedup_hits"] / paths if paths else 0.0,
        "pruned": totals["pruned"],
        "prune_ratio": totals["pruned"] / (totals["pruned"] + paths)
                       if paths else 0.0,
        "violating_paths": totals["violating_paths"],
        "replay_confirmed": sum(
            1 for c in report["cells"]
            if c.get("counterexample", {}).get("replay_confirmed")),
        "workers": stats.workers,
        "pool_fallback": stats.pool_fallback,
        "shared_prefix_share": stats.shared_prefix_share,
    }


def run_experiment():
    rows = []

    # Campaign 1: certify at the prepared budget, and prove the report
    # is worker-count independent.
    certify_params = _params()
    report, stats = _campaign(certify_params)
    assert report["certified"], \
        "the budget-provisioned config must certify exhaustively"
    assert report["totals"]["dedup_hits"] > 0, \
        "state-hash dedup must be non-trivial on this config"
    parallel_report, parallel_stats = _campaign(
        CheckParams(**{**certify_params.__dict__, "workers": 2}))
    if not parallel_stats.pool_fallback:
        assert json.dumps(report, sort_keys=True) \
            == json.dumps(parallel_report, sort_keys=True), \
            "campaign reports must be byte-identical across worker counts"
    rows.append({**_row("certify", report, stats), "expect": "certify"})
    rows.append({**_row("certify_w2", parallel_report, parallel_stats),
                 "expect": "certify"})

    # Campaign 2: under-provision R; the checker must exhibit a
    # minimised, replay-confirmed counterexample.
    broken_report, broken_stats = _campaign(
        _params(kinds=("commission",), R_us=30_000))
    assert not broken_report["certified"]
    artifacts = [c["counterexample"] for c in broken_report["cells"]
                 if c.get("counterexample")]
    assert artifacts, "under-provisioned R must yield a counterexample"
    assert all(a["replay_confirmed"] for a in artifacts), \
        "every counterexample must replay through the normal run path"
    assert all(
        any(v["invariant"] == "recovery-bound" for v in a["violations"])
        for a in artifacts)
    rows.append({**_row("break_R30ms", broken_report, broken_stats),
                 "expect": "violate"})

    for row in rows:
        record("mc", row, label="e18_model_check")

    table_rows = [[
        r["campaign"],
        "yes" if r["certified"] else "NO",
        str(r["paths"]),
        str(r["distinct_states"]),
        f"{r['dedup_hit_rate']:.0%}",
        f"{r['prune_ratio']:.0%}",
        str(r["violating_paths"]),
        f"{r['shared_prefix_share']:.1%}",
    ] for r in rows]
    write_result("e18_model_check", format_table(
        "E18 - Bounded model checking (pipeline on fullmesh:4, f=1)",
        ["campaign", "certified", "paths", "distinct", "dedup",
         "pruned", "violations", "shared prefix"],
        table_rows,
    ) + (
        "\nCertify: exhaustive pass at the prepared budget, "
        "byte-identical at workers=1 and workers=2.\n"
        "Break: R=30ms under-provisions commission recovery "
        "(~40-76ms); the minimised counterexample replays through the "
        "normal run path and confirms the kR violation.\n"
        "Shared prefix: the share of the explored paths' simulated time "
        "each has in common with its parent — the ceiling on what "
        "snapshot-and-fork could skip (docs/PERFORMANCE.md).\n"
    ))
    return rows


def test_e18_model_check(benchmark):
    rows = one_shot(benchmark, run_experiment)
    assert [r["expect"] for r in rows] \
        == ["certify", "certify", "violate"]

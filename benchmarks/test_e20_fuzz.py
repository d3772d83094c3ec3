"""E20 — Coverage-guided fuzzing: find at tightened R, clean at budget.

Two campaigns on the smallest config the placement rules admit
(``pipeline`` on ``fullmesh:4``, f=1 — the same config E18 exhausts
with the model checker; the fuzzer searches the same adversary space by
mutation instead of enumeration):

* **find** — R is deliberately under-provisioned to 30 ms (a commission
  fault on this config recovers in ~40–76 ms); the campaign must
  surface at least one violating script, minimise it to its shortest
  violating injection prefix, serialise it in the ``mc/``
  counterexample format, and replay-confirm it through the normal
  ``BTRSystem.run`` path. The report must also come out byte-identical
  at ``workers=1`` and ``workers=2`` (the determinism claim ``repro
  fuzz`` makes on the tin).
* **clean** — R is the prepared budget; the same campaign (same seed,
  same bounds) must find nothing.

Each campaign appends one row to ``fuzz_stats.jsonl`` (scripts
evaluated, coverage keys, violations found/confirmed, expectation
label); ``tools/run_experiments.py`` aggregates the stream into
``BENCH_fuzz.json``. What a campaign costs in host time is E23's
``search_n4`` to record.

``REPRO_SWEEP=smoke`` — tighter bounds (fewer generations/kinds).
"""

import json

from harness import one_shot, record, smoke, write_result
from repro import BTRConfig
from repro.analysis import format_table
from repro.fuzz import FuzzParams, run_fuzz_campaign

META = {"workload": "pipeline", "topology": "fullmesh:4",
        "bandwidth": 1e8, "f": 1, "seed": 0}


def _params(**kw) -> FuzzParams:
    if smoke():
        defaults = dict(kinds=("crash", "commission", "timing"),
                        ticks=2, generations=2, batch=4, elite=3,
                        seed=7)
    else:
        defaults = dict(kinds=("crash", "commission", "omission",
                               "timing"),
                        ticks=2, generations=4, batch=8, elite=4,
                        seed=7)
    defaults.update(kw)
    return FuzzParams(**defaults)


def _campaign(params: FuzzParams):
    from repro.net import full_mesh_topology
    from repro.workload import pipeline_workload

    return run_fuzz_campaign(pipeline_workload(),
                             full_mesh_topology(4, bandwidth=1e8),
                             BTRConfig(f=1), params, meta=dict(META))


def _row(name: str, report: dict, stats) -> dict:
    artifacts = report["counterexamples"]
    return {
        "campaign": name,
        "found": report["found"],
        "scripts_evaluated": report["evaluated"],
        "coverage_keys": len(report["coverage"]),
        "best_fitness": report["best_fitness"],
        "violating_scripts": report["violating_scripts"],
        "counterexamples": len(artifacts),
        "replay_confirmed": sum(1 for a in artifacts
                                if a["replay_confirmed"]),
        "workers": stats.workers,
        "pool_fallback": stats.pool_fallback,
    }


def run_experiment():
    rows = []

    # Campaign 1: under-provision R; the fuzzer must find, minimise,
    # and replay-confirm a kR violation — and the report must be
    # worker-count independent.
    find_params = _params(R_us=30_000)
    report, stats = _campaign(find_params)
    assert report["found"], \
        "tightened R must yield at least one violating script"
    artifacts = report["counterexamples"]
    assert all(a["replay_confirmed"] for a in artifacts), \
        "every counterexample must replay through the normal run path"
    assert all(
        any(v["invariant"] == "recovery-bound" for v in a["violations"])
        for a in artifacts)
    assert all(len(a["fault_script"]["injections"]) == 1
               for a in artifacts), \
        "minimisation must shrink to the shortest violating prefix"
    parallel_report, parallel_stats = _campaign(
        FuzzParams(**{**find_params.__dict__, "workers": 2}))
    if not parallel_stats.pool_fallback:
        assert json.dumps(report, sort_keys=True) \
            == json.dumps(parallel_report, sort_keys=True), \
            "campaign reports must be byte-identical across worker counts"
    rows.append({**_row("find_R30ms", report, stats), "expect": "find"})
    rows.append({**_row("find_R30ms_w2", parallel_report,
                        parallel_stats), "expect": "find"})

    # Campaign 2: the planned budget; the same search must come up dry.
    clean_report, clean_stats = _campaign(_params())
    assert not clean_report["found"], \
        "the budget-provisioned config must survive the same campaign"
    assert clean_report["violating_scripts"] == 0
    rows.append({**_row("clean_budget", clean_report, clean_stats),
                 "expect": "clean"})

    for row in rows:
        record("fuzz", row, label="e20_fuzz")

    table_rows = [[
        r["campaign"],
        "yes" if r["found"] else "no",
        str(r["scripts_evaluated"]),
        str(r["coverage_keys"]),
        str(r["violating_scripts"]),
        str(r["replay_confirmed"]),
    ] for r in rows]
    write_result("e20_fuzz", format_table(
        "E20 - Coverage-guided fuzzing (pipeline on fullmesh:4, f=1)",
        ["campaign", "found", "scripts", "coverage", "violating",
         "confirmed"],
        table_rows,
    ) + (
        "\nFind: R=30ms under-provisions commission recovery "
        "(~40-76ms); the fuzzer surfaces a violating script, shrinks "
        "it to one injection, and replay-confirms it through the "
        "normal run path, byte-identical at workers=1 and workers=2.\n"
        "Clean: the identical campaign at the prepared budget finds "
        "nothing.\n"
    ))
    return rows


def test_e20_fuzz(benchmark):
    rows = one_shot(benchmark, run_experiment)
    assert [r["expect"] for r in rows] == ["find", "find", "clean"]

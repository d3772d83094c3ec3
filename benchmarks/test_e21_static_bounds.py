"""E21 — Static recovery bounds: soundness and tightness (Layer 4).

The analyzer (``repro bounds``, :mod:`repro.verify.bounds`) claims
*dominance*: for every fault the simulator can produce, each empirical
phase span and the end-to-end recovery sit at or below the static bound
for the fault's class. This experiment cross-validates that claim and
measures *tightness* (class bound / worst empirical recovery — 1.0
would be exact) across three artifact populations:

* **benchmark grid** — the four benchmark deployments, every analyzed
  fault kind x every plan-holding victim x a grid of injection offsets
  across the period. Forgery kinds get a denser grid (32 offsets vs 8):
  their recoveries are short, so a sparse grid understates the worst
  case and *overstates* the tightness ratio.
* **fuzz corpus** — every committed ``corpus/`` counterexample replayed
  through the normal run path (the pipeline deployment; soundness only,
  it is a found-adversarial artifact, not a tightness benchmark).
* **mc counterexamples** — a deliberately under-provisioned model
  checking campaign's minimised counterexamples, replayed and checked
  (a violation of a *planned* R must still sit under the static bound).

Each scenario appends one row to the ``bounds`` stream;
``tools/run_experiments.py`` folds them into the ``BENCH_bounds.json``
trajectory and ``tools/bench_check.py`` fails CI when soundness breaks
or a tightness ratio regresses by >20% against an entry of the same
sweep.

``REPRO_SWEEP=smoke`` — one scenario, 2 offsets, soundness only
(tightness needs the dense grid to be meaningful).
"""

import os
from dataclasses import replace

from harness import one_shot, record, smoke, write_result
from repro import BTRSystem, Deployment
from repro.analysis import format_table
from repro.faults import single_fault
from repro.fuzz import check_corpus, load_corpus
from repro.mc import CheckParams, replay_counterexample, run_campaign
from repro.obs import reconstruct_timelines
from repro.verify.bounds import (SoundnessCheck, check_timelines,
                                 compute_bounds)

N_PERIODS = 30

#: The four benchmark deployments the tightness gate covers.
SCENARIOS = [
    ("industrial-fm7", Deployment("industrial", "fullmesh:7")),
    ("industrial-fm5", Deployment("industrial", "fullmesh:5")),
    ("avionics-mesh9", Deployment("avionics", "mesh:3x3")),
    ("automotive-fm5", Deployment("automotive", "fullmesh:5")),
]

#: The deployment the corpus and the mc counterexamples run on.
PIPELINE = Deployment("pipeline", "fullmesh:4")

#: Injection-offset grid density per fault kind. Forgery recoveries are
#: the shortest (self-incrimination within a period), so their worst
#: case needs the densest sampling; silence/timing recoveries span
#: multiple periods and saturate the worst case on the coarse grid.
OFFSETS_BY_KIND = {
    "crash": 8,
    "omission": 8,
    "commission": 32,
    "equivocation": 32,
    "timing": 8,
    "rogue_clock": 8,
}

#: Every class's tightness ratio must stay at or below this on the
#: benchmark grid — a sound bound that is >3x loose certifies nothing.
TIGHTNESS_CEILING = 3.0

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "corpus")


def _prepared(deployment: Deployment) -> BTRSystem:
    system = deployment.system()
    system.prepare()
    return system


def _bounds_report(system: BTRSystem):
    return compute_bounds(system.strategy, system.topology,
                          system.lane_model, system.config,
                          budget=system.budget)


def _grid_campaign(name, deployment) -> dict:
    """Sweep one deployment's fault grid against its static bounds."""
    probe = _prepared(deployment)
    report = _bounds_report(probe)
    period = probe.strategy.nominal.workload.period
    victims = [node for node in probe.topology.node_ids()
               if probe.strategy.has_plan(frozenset({node}))]
    check = SoundnessCheck()
    runs = 0
    for kind, n_offsets in OFFSETS_BY_KIND.items():
        if smoke():
            n_offsets = 2
        for victim in victims:
            for i in range(n_offsets):
                at = 4 * period + i * period // n_offsets + 17
                result = probe.run(N_PERIODS, single_fault(
                    probe, kind, at=at, node=victim).script)
                check_timelines(report, reconstruct_timelines(result),
                                check)
                runs += 1
    return {
        "scenario": name,
        "grid": "smoke" if smoke() else "full",
        "runs": runs,
        "checked": check.checked,
        "skipped_unachievable": check.skipped_unachievable,
        "sound": check.ok,
        "violations": [str(v) for v in check.violations],
        "R_us": report.R_us,
        "class_tightness": {k: round(v, 4)
                            for k, v in check.class_tightness.items()},
        "tightness": {k: round(v, 4)
                      for k, v in check.tightness.items()},
    }


def _corpus_soundness() -> dict:
    """Replay the committed fuzz corpus; its timelines must be bounded.

    The corpus deployment (pipeline on fullmesh:4) is a soundness
    artifact, not a tightness benchmark: its entries are adversarially
    *found* worst cases for an under-provisioned R, so dominance is the
    claim to check, while the tightness of a 4-node pipeline's bound is
    not a number the benchmark deployments promise.
    """
    entries = load_corpus(CORPUS_DIR)
    verdict = check_corpus(CORPUS_DIR, entries=entries)
    systems = {}
    check = SoundnessCheck()
    for _, payload in entries:
        deployment = Deployment.from_meta(payload["meta"])
        assert (deployment.workload, deployment.topology) \
            == (PIPELINE.workload, PIPELINE.topology), \
            f"unexpected corpus deployment: {deployment}"
        if deployment not in systems:
            systems[deployment] = _prepared(deployment)
        system = systems[deployment]
        _, result = replay_counterexample(system, payload)
        check_timelines(_bounds_report(system),
                        reconstruct_timelines(result), check)
    return {
        "scenario": "pipeline-fm4-corpus",
        "grid": "artifact",
        "runs": len(entries),
        "checked": check.checked,
        "skipped_unachievable": check.skipped_unachievable,
        "sound": check.ok,
        "violations": [str(v) for v in check.violations],
        "corpus_ok": verdict["ok"],
        "corpus_checked": verdict["checked"],
    }


def _mc_counterexample_soundness() -> dict:
    """Break a campaign on purpose; its counterexamples stay bounded.

    R is under-provisioned to 30 ms so the bounded model checker must
    produce minimised counterexamples — recoveries that violate the
    *campaign's* R. Replayed through the normal run path, every one of
    those recoveries must still sit under the static bound computed at
    the *planned* budget: the analyzer bounds the mechanism, not the
    operator's promise.
    """
    params = CheckParams(kinds=("commission",), ticks=1, max_depth=1,
                         branch=2, max_paths=40, R_us=30_000)
    searched = replace(PIPELINE, seed=params.seed)
    mc_report, _ = run_campaign(searched.build_workload(),
                                searched.build_topology(),
                                searched.config(), params)
    artifacts = [c["counterexample"] for c in mc_report["cells"]
                 if c.get("counterexample")]
    check = SoundnessCheck()
    system = _prepared(PIPELINE)
    report = _bounds_report(system)
    for payload in artifacts:
        _, result = replay_counterexample(system, payload)
        check_timelines(report, reconstruct_timelines(result), check)
    return {
        "scenario": "pipeline-fm4-mc",
        "grid": "artifact",
        "runs": len(artifacts),
        "checked": check.checked,
        "skipped_unachievable": check.skipped_unachievable,
        "sound": check.ok,
        "violations": [str(v) for v in check.violations],
        "counterexamples": len(artifacts),
    }


def run_experiment():
    scenarios = SCENARIOS[:1] if smoke() else SCENARIOS
    rows = [_grid_campaign(*scenario) for scenario in scenarios]
    rows.append(_corpus_soundness())
    rows.append(_mc_counterexample_soundness())

    for row in rows:
        record("bounds", row, label="e21_static_bounds")

    # Soundness is unconditional: every population, every grid.
    for row in rows:
        assert row["sound"], \
            f"{row['scenario']}: static bound violated: " \
            f"{row['violations'][:3]}"
    corpus_row = next(r for r in rows
                      if r["scenario"] == "pipeline-fm4-corpus")
    assert corpus_row["corpus_ok"], "corpus replay regression"
    mc_row = next(r for r in rows if r["scenario"] == "pipeline-fm4-mc")
    assert mc_row["counterexamples"] > 0, \
        "under-provisioned campaign must yield counterexamples"

    # Tightness is gated only on the full benchmark grid — the smoke
    # grid is too sparse for its worst-empirical to mean anything.
    if not smoke():
        for row in rows:
            if row["grid"] != "full":
                continue
            for fault_class, ratio in row["class_tightness"].items():
                assert ratio <= TIGHTNESS_CEILING, \
                    f"{row['scenario']}: {fault_class} bound is " \
                    f"{ratio:.2f}x the worst empirical recovery " \
                    f"(ceiling {TIGHTNESS_CEILING}x)"

    table_rows = []
    for row in rows:
        tight = row.get("class_tightness", {})
        table_rows.append([
            row["scenario"],
            row["grid"],
            str(row["checked"]),
            str(row["skipped_unachievable"]),
            "yes" if row["sound"] else "NO",
            *[f"{tight[c]:.2f}x" if c in tight else "-"
              for c in ("silence", "forgery", "timing")],
        ])
    write_result("e21_static_bounds", format_table(
        "E21 - Static recovery bounds: soundness and tightness",
        ["scenario", "grid", "checked", "skipped", "sound",
         "silence", "forgery", "timing"],
        table_rows,
    ) + (
        "\nSoundness: every empirical phase span and recovery total "
        "sits under the static class bound (grid sweeps, corpus "
        "replays, mc counterexample replays alike).\n"
        "Tightness: class bound over worst empirical recovery; the "
        f"benchmark grid gates at <={TIGHTNESS_CEILING:.0f}x. The "
        "corpus/mc deployments check soundness only.\n"
    ))
    return rows


def test_e21_static_bounds(benchmark):
    rows = one_shot(benchmark, run_experiment)
    assert all(r["sound"] for r in rows)

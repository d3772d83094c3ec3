"""E1 — Recovery is bounded by R for every fault type.

Paper claim (Definition 3.1): outputs are correct in any interval such that
no fault manifested within the preceding R. We inject one fault of each
Byzantine flavour, reconstruct the recovery timeline from the trace
(manifest → first charge → conviction → quorum → switch boundary → first
correct output), and check that (a) the phase spans sum exactly to the
empirical end-to-end recovery, (b) the Definition 3.1 checker holds at the
deployment's promised bound, (c) it holds at the empirical recovery and
fails one µs below it. The recovery numbers reported to
EXPERIMENTS.md come *from the timeline* — the observability layer is the
single source of the figure, not an ad hoc recomputation.
"""

import os

import pytest

from harness import (
    FAULT_AT,
    RESULTS_DIR,
    one_shot,
    prepared_btr,
    record,
    write_result,
)
from repro.analysis import btr_verdict, format_table, smallest_sufficient_R
from repro.faults import single_fault
from repro.obs import (PHASES, budget_attribution, export_run,
                       reconstruct_timelines)
from repro.sim import to_seconds

FAULT_KINDS = ("commission", "crash", "omission", "timing", "equivocation")
N_PERIODS = 30


def run_experiment():
    rows = []
    phase_rows = []
    checks = []
    budget = None
    for kind in FAULT_KINDS:
        system = prepared_btr(seed=42)
        result = system.run(
            N_PERIODS, single_fault(system, kind, at=FAULT_AT).script)
        budget = system.budget
        promised = budget.total_us
        timelines = reconstruct_timelines(result)
        dropped = {k: v for k, v in result.metrics["counters"].items()
                   if k.startswith("messages_dropped")}
        for t in timelines:
            record("obs", {
                "messages_dropped": dropped,
                "phase_sum_mismatch": t.phase_sum() != t.total_us,
                **t.to_dict(),
            }, label=f"e1:{kind}")
        timeline = timelines[0]
        # The reported figure IS the timeline total; the checker judges
        # it through the excuse rule, not through the fault windows.
        empirical = timeline.total_us
        verdict = btr_verdict(result, R_us=promised)
        tight = (btr_verdict(result, R_us=empirical).holds,
                 btr_verdict(result, R_us=empirical - 1).holds)
        checks.append((kind, verdict, timeline, empirical, promised,
                       tight))
        rows.append([
            kind,
            f"{to_seconds(empirical):.3f}s",
            f"{to_seconds(promised):.3f}s",
            f"{empirical / promised:.0%}" if promised else "-",
            "yes" if verdict.holds else "NO",
        ])
        phase_rows.append(
            [kind]
            + [f"{to_seconds(timeline.phases[p]):.3f}s" for p in PHASES]
            + [f"{to_seconds(timeline.total_us):.3f}s"]
        )
        if kind == "commission":
            export_run(result,
                       os.path.join(RESULTS_DIR, "e1_obs_commission.json"),
                       timelines=timelines)
    # Budget attribution: worst observed span per phase vs the component
    # of R that budgets for it (identical budget across kinds: one
    # deployment, five adversaries).
    attribution_rows = []
    for i, phase in enumerate(PHASES):
        worst_kind, worst_timeline = max(
            ((c[0], c[2]) for c in checks),
            key=lambda kt: kt[1].phases[phase],
        )
        _, span, component, promised_us = budget_attribution(
            worst_timeline, budget)[i]
        attribution_rows.append([
            phase,
            f"{to_seconds(span):.3f}s",
            worst_kind,
            component,
            f"{to_seconds(promised_us):.3f}s",
            f"{span / promised_us:.0%}" if promised_us else "-",
        ])
    return rows, phase_rows, attribution_rows, checks


def test_e1_recovery_bound(benchmark):
    rows, phase_rows, attribution_rows, checks = one_shot(
        benchmark, run_experiment)
    write_result("e1_recovery_bound", format_table(
        "E1: empirical recovery (from reconstructed timeline) vs promised "
        "bound R, per fault kind (industrial workload, 7-node mesh, f=1)",
        ["fault kind", "empirical recovery", "promised R", "fraction",
         "Def. 3.1 holds"],
        rows,
    ))
    write_result("e1_phase_budget", format_table(
        "E1: recovery phase spans per fault kind (reconstructed from the "
        "trace; spans sum to the end-to-end figure by construction)",
        ["fault kind"] + list(PHASES) + ["total"],
        phase_rows,
    ) + "\n" + format_table(
        "E1: per-phase budget attribution (worst observed span across "
        "fault kinds vs the budget component that covers it)",
        ["phase", "worst observed", "in fault kind", "budget component",
         "promised", "used"],
        attribution_rows,
    ))
    for kind, verdict, timeline, empirical, promised, tight in checks:
        assert verdict.holds, (
            f"{kind}: BTR violated at R={promised}: "
            f"{[(v.flow, v.period_index, v.status) for v in verdict.violations[:4]]}"
        )
        assert 0 < empirical <= promised, (
            f"{kind}: recovery {empirical} outside (0, {promised}]"
        )
        # The timeline's phase decomposition must account for every µs of
        # the end-to-end figure, and that figure must be the smallest R
        # under which Definition 3.1 holds.
        assert timeline.phase_sum() == empirical, (
            f"{kind}: phases {timeline.phases} sum to "
            f"{timeline.phase_sum()}, expected {empirical}"
        )
        assert tight == (True, False), (
            f"{kind}: Definition 3.1 holds at R={empirical} / "
            f"R={empirical - 1}: {tight}, expected (True, False)"
        )
        # Every milestone the phases are cut at was actually observed.
        missing = [m for m, t in timeline.milestones.items() if t is None]
        assert not missing, f"{kind}: unobserved milestones {missing}"


def test_e1_fault_free_needs_no_recovery(benchmark):
    def run():
        system = prepared_btr(seed=42)
        result = system.run(N_PERIODS)
        return (smallest_sufficient_R(result),
                btr_verdict(result, R_us=0),
                reconstruct_timelines(result))

    empirical, verdict, timelines = one_shot(benchmark, run)
    # None: a bad slot that no fault excuses under any R.
    assert empirical == 0, f"fault-free run needs R = {empirical}"
    assert verdict.holds  # R = 0: classical fault tolerance, trivially met
    assert timelines == []  # no faults, no timelines

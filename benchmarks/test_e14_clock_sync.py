"""E14 — Clock synchrony: tolerate honest drift, catch rogue clocks.

Paper claim (§2.1): the system model assumes local clocks and (citing the
clock-sync literature) effective synchronization; timing-fault detection
(§4.2) must therefore tolerate the residual error ε while still catching
nodes whose clocks are genuinely wrong.

Sweep honest drift magnitudes (clocks re-synced every second) and verify
zero false accusations and full output correctness; then pin one node's
clock 150 ms off (it ignores sync) and verify it is detected — via gross
self-incriminating timestamps — and isolated within the bound.
"""

import pytest

from harness import one_shot, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table, smallest_sufficient_R
from repro.faults import FaultScript, Injection, RogueClockFault
from repro.net import full_mesh_topology
from repro.sim import EvidenceGenerated, to_seconds
from repro.workload import industrial_workload

N_PERIODS = 40
DRIFTS = (0.0, 50.0, 200.0, 500.0)


def shown(recovery):
    """A recovery in seconds; ``none`` when no R excuses the run."""
    return "none" if recovery is None else f"{to_seconds(recovery):.3f}s"


def run_experiment():
    rows = []
    outcomes = []
    for drift in DRIFTS:
        system = BTRSystem(
            industrial_workload(), full_mesh_topology(7, bandwidth=1e8),
            BTRConfig(f=1, seed=19, clock_drift_ppm=drift),
        )
        system.prepare()
        result = system.run(N_PERIODS)
        accusations = len(result.trace.of_kind(EvidenceGenerated))
        recovery = smallest_sufficient_R(result)
        rows.append([f"±{drift:.0f} ppm", accusations, shown(recovery)])
        outcomes.append((drift, accusations, recovery))
    return rows, outcomes


def test_e14_honest_drift_causes_no_accusations(benchmark):
    rows, outcomes = one_shot(benchmark, run_experiment)
    write_result("e14_clock_sync", format_table(
        "E14: honest clock drift (1 s sync interval) — fault-free runs "
        "(industrial workload, 7-node mesh)",
        ["drift", "accusations", "recovery needed"],
        rows,
    ))
    for drift, accusations, recovery in outcomes:
        assert accusations == 0, f"drift {drift}: false accusations"
        assert recovery == 0, f"drift {drift}: outputs disrupted"


def test_e14_rogue_clock_is_detected(benchmark):
    def run():
        system = BTRSystem(
            industrial_workload(), full_mesh_topology(7, bandwidth=1e8),
            BTRConfig(f=1, seed=19),
        )
        system.prepare()
        victim = system.compromisable_nodes()[0]
        result = system.run(N_PERIODS, FaultScript([
            Injection(220_000, victim, RogueClockFault(offset_us=150_000)),
        ]))
        kinds = {e.fault_kind
                 for e in result.trace.of_kind(EvidenceGenerated)}
        correct_sets = [fs for n, fs in result.final_fault_sets.items()
                        if n != victim]
        converged = all(fs == frozenset({victim}) for fs in correct_sets)
        return kinds, converged, smallest_sufficient_R(result), \
            system.budget.total_us

    kinds, converged, recovery, budget = one_shot(benchmark, run)
    write_result("e14_rogue_clock", (
        f"\nE14b: rogue clock (150 ms off, ignores sync): evidence kinds "
        f"{sorted(kinds)}, isolated by all correct nodes: {converged}, "
        f"recovery {shown(recovery)} (bound "
        f"{to_seconds(budget):.3f}s)\n"
    ))
    assert "timing" in kinds       # gross, self-incriminating timestamps
    assert converged
    assert recovery is not None and recovery <= budget

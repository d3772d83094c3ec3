"""E10 — Evidence distribution resists bogus-evidence flooding.

Paper claims (§4.3): evidence distribution must "prevent the adversary from
causing delays via DoS, e.g., by flooding the system with bogus evidence";
defences are reserved bandwidth/CPU, validate-before-forward, cheap
rejection of improperly signed junk, and counting properly-signed slander
against the signer.

Sweep the flooding rate and measure: outputs disrupted (should be none),
bogus records rejected, and — with a *real* fault injected during the
flood — whether genuine evidence still propagates and recovery still
completes within its bound.
"""

import pytest

from harness import FAULT_AT, one_shot, prepared_btr, write_result
from repro.analysis import format_table, smallest_sufficient_R, timeliness
from repro.faults import (
    CommissionFault,
    EvidenceFloodFault,
    FaultScript,
    Injection,
)
from repro.sim import EvidenceRejected, to_seconds

N_PERIODS = 30
RATES = (0, 5, 20, 50)


def run_experiment():
    rows = []
    outcomes = []
    for rate in RATES:
        system = prepared_btr(seed=45, n_nodes=8, f=2)
        victims = system.compromisable_nodes()
        injections = []
        if rate:
            injections.append(Injection(
                100_000, victims[0],
                EvidenceFloodFault(records_per_period=rate),
            ))
        # A real fault mid-flood: genuine evidence must still get through.
        injections.append(Injection(FAULT_AT, victims[1],
                                    CommissionFault()))
        result = system.run(N_PERIODS, FaultScript(injections))
        rejected = len(result.trace.of_kind(EvidenceRejected))
        recovery = smallest_sufficient_R(result)
        report = timeliness(result)
        flooder_known = all(
            victims[1] in fs
            for node, fs in result.final_fault_sets.items()
            if node not in (victims[0], victims[1])
        )
        rows.append([
            f"{rate}/period", rejected,
            f"{to_seconds(recovery):.3f}s",
            f"{report.miss_rate:.1%}",
            "yes" if flooder_known else "NO",
        ])
        outcomes.append((rate, rejected, recovery, report, flooder_known,
                         system.budget.total_us))
    return rows, outcomes


def test_e10_evidence_flooding(benchmark):
    rows, outcomes = one_shot(benchmark, run_experiment)
    write_result("e10_evidence_flooding", format_table(
        "E10: forged-evidence flooding vs real-fault recovery "
        "(industrial workload, 8-node mesh, f=2)",
        ["flood rate", "records rejected", "real-fault recovery",
         "output miss rate", "real fault isolated"],
        rows,
    ))
    for rate, rejected, recovery, report, isolated, budget in outcomes:
        label = f"rate={rate}"
        # Real evidence always gets through; recovery stays bounded.
        assert isolated, label
        assert recovery <= budget, label
        # Flooding never disrupts outputs beyond the real fault's share.
        assert report.miss_rate < 0.1, label
        if rate:
            assert rejected > 0, label
    # Rejections scale with the flood; recovery does not.
    recoveries = [r for _, _, r, _, _, _ in outcomes]
    assert max(recoveries) <= min(recoveries) * 2 + 100_000


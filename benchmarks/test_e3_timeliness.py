"""E3 — BTR outputs are timely when no attack is underway.

Paper claim (§1): "BTR can also guarantee that outputs are timely when an
attack is absent ... BTR can use the output of some replicas without
waiting for the others to complete." We measure fault-free output latency
and deadline-miss rates for BTR and the baselines, plus BTR's latency under
a *crashed primary* — the case where the fast path ("use some replicas
without waiting") pays off: the checker forwards the surviving replica and
outputs keep flowing.
"""

import pytest

from harness import FAULT_AT, one_shot, prepared_btr, write_result
from repro.baselines import BFTSystem, UnreplicatedSystem, ZZSystem
from repro.analysis import format_table, timeliness
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.sim import to_seconds
from repro.workload import industrial_workload

N_PERIODS = 30


def run_experiment():
    reports = {}
    workload = industrial_workload()

    btr = prepared_btr(seed=9, n_nodes=8)
    reports["btr"] = timeliness(btr.run(N_PERIODS))

    for name, cls in (("unreplicated", UnreplicatedSystem),
                      ("zz", ZZSystem), ("bft", BFTSystem)):
        system = cls(workload, full_mesh_topology(8, bandwidth=1e8),
                     f=1, seed=9)
        system.prepare()
        reports[name] = timeliness(system.run(N_PERIODS))

    # The fast path under a crashed primary: outputs keep flowing.
    btr2 = prepared_btr(seed=9, n_nodes=8)
    crash_result = btr2.run(
        N_PERIODS, single_fault(btr2, "crash", at=FAULT_AT).script)
    reports["btr (crashed primary)"] = timeliness(crash_result)
    return reports


def test_e3_timeliness(benchmark):
    reports = one_shot(benchmark, run_experiment)
    rows = [
        [name,
         f"{to_seconds(int(r.mean_latency_us)):.4f}s",
         f"{to_seconds(r.p99_latency_us):.4f}s",
         f"{r.miss_rate:.1%}"]
        for name, r in reports.items()
    ]
    write_result("e3_timeliness", format_table(
        "E3: fault-free output latency and deadline misses "
        "(industrial workload, 8-node mesh, 30 periods)",
        ["system", "mean latency", "p99 latency", "miss rate"],
        rows,
    ))
    # Fault-free: everyone meets every deadline on this substrate.
    for name in ("btr", "unreplicated", "zz", "bft"):
        assert reports[name].miss_rate == 0.0, name
    # Masking costs latency: BFT waits for the (2f+1)-th replica.
    assert reports["bft"].mean_latency_us > reports["unreplicated"].mean_latency_us
    # BTR's detection machinery does not blow up latency vs ZZ-style
    # masking (same replica count, same checker position).
    assert reports["btr"].mean_latency_us <= reports["zz"].mean_latency_us * 1.5
    # Fast path under a crashed primary: the vast majority of outputs
    # still arrive (brief disruption only around the switch).
    crashed = reports["btr (crashed primary)"]
    assert crashed.on_time / crashed.total_slots > 0.9

"""E12 (ablation) — The paper's placement heuristics.

Paper claim (§4.1): "putting replicas close to each other may save
bandwidth, and putting checking tasks close to replicas can make it easier
to detect omission faults."

Ablation on a multi-hop grid (locality is meaningless on a full mesh):
build plans with and without the locality term and compare (a) planned
network load (bit-hops per period), (b) end-to-end output latency, and
(c) detection latency for an omission fault.
"""

import pytest

from harness import one_shot, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table, timeliness
from repro.faults import FaultScript, Injection, OmissionFault
from repro.net import mesh_topology
from repro.obs import reconstruct_timelines
from repro.sim import to_seconds
from repro.workload import industrial_workload

N_PERIODS = 40
FAULT_AT = 220_000


def build(use_locality: bool) -> BTRSystem:
    system = BTRSystem(
        industrial_workload(),
        mesh_topology(3, 3, bandwidth=1e8),
        BTRConfig(f=1, seed=61, use_locality=use_locality),
    )
    system.prepare()
    return system


def run_experiment():
    data = {}
    for label, use in (("with locality", True), ("without", False)):
        system = build(use)
        plan = system.strategy.nominal
        bit_hops = plan.schedule.total_bits()
        clean = system.run(N_PERIODS)
        report = timeliness(clean)

        system2 = build(use)
        victim = system2.compromisable_nodes()[0]
        faulty = system2.run(N_PERIODS, FaultScript([
            Injection(FAULT_AT, victim,
                      OmissionFault(drop_probability=1.0)),
        ]))
        # Detection: manifest -> first conviction on the fault's timeline.
        (timeline,) = reconstruct_timelines(faulty)
        convicted = timeline.milestones["conviction"]
        data[label] = {
            "bit_hops": bit_hops,
            "mean_latency": report.mean_latency_us,
            "miss_rate": report.miss_rate,
            "detection": (None if convicted is None
                          else convicted - timeline.manifest_us),
        }
    return data


def test_e12_placement_ablation(benchmark):
    data = one_shot(benchmark, run_experiment)
    rows = []
    for label in ("with locality", "without"):
        d = data[label]
        rows.append([
            label,
            f"{d['bit_hops'] / 1000:.0f} kbit-hops",
            f"{to_seconds(int(d['mean_latency'])):.4f}s",
            f"{d['miss_rate']:.1%}",
            f"{to_seconds(d['detection']):.3f}s"
            if d["detection"] is not None else "-",
        ])
    write_result("e12_ablation_placement", format_table(
        "E12: placement with vs without the locality heuristics "
        "(industrial workload, 3x3 grid mesh, f=1)",
        ["placement", "planned network load", "mean output latency",
         "miss rate", "omission detection latency"],
        rows,
    ))
    with_loc, without = data["with locality"], data["without"]
    # The paper's bandwidth claim: locality saves network load.
    assert with_loc["bit_hops"] < without["bit_hops"]
    # Both deployments still meet deadlines when healthy.
    assert with_loc["miss_rate"] == 0.0
    # Detection works in both; locality must not make it slower.
    assert with_loc["detection"] is not None
    assert without["detection"] is not None
    assert with_loc["detection"] <= without["detection"] * 1.5

#!/usr/bin/env python3
"""Automotive scenario: omission faults and blame attribution.

A car is the paper's example of a CPS that is secretly a distributed system
("even a simple CPS such as a modern (non-self-driving) car contains about
a hundred microprocessors", §2). This example exercises the part of BTR the
paper calls out as the hardest (§4.2): omission faults.

An ECU silently stops sending — there is no signed wrong statement to use
as evidence. Recovery instead runs through the path-declaration protocol:
each counterparty that misses a message declares the path problematic;
once a node sits on enough declared paths, from at least two independent
declarers, it is attributed and the mode switch isolates it.

Run:  python examples/automotive.py
"""

from repro import BTRConfig, BTRSystem
from repro.analysis import format_table, smallest_sufficient_R, timeliness
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.sim import EvidenceGenerated, to_seconds
from repro.workload import automotive_workload


def main() -> None:
    workload = automotive_workload(n_wheels=4)  # period = 10 ms
    topology = full_mesh_topology(8, bandwidth=2e8)
    system = BTRSystem(workload, topology, BTRConfig(f=1, seed=13))
    budget = system.prepare()
    print(f"ECUs: {len(topology.nodes)}; plans: {len(system.strategy)}; "
          f"promised R = {to_seconds(budget.total_us):.3f}s")

    # An ABS-controller replica's host goes silent on the data plane at
    # t=55ms. (Pick a replica hosted on an attackable node — I/O nodes
    # are outside the threat model.)
    candidates = set(system.compromisable_nodes())
    assignment = system.strategy.nominal.assignment
    victim = next(
        assignment[inst] for inst in ("abs_ctrl#r0", "abs_ctrl#r1",
                                      "abs_ctrl#c")
        if assignment[inst] in candidates
    )
    fault = single_fault(system, "omission", at=55_000, node=victim)
    result = system.run(n_periods=100, adversary=fault.script)
    print(f"\nrun: {result.summary()}")

    # How the system pinned the blame, step by step.
    rows = []
    for event in result.trace.of_kind(EvidenceGenerated):
        rows.append([
            f"{to_seconds(event.time):.3f}s",
            event.detector_node,
            event.accused_node,
            event.fault_kind,
        ])
    print(format_table(
        "Evidence timeline (omission has no direct proof; declarations "
        "accumulate into an attribution)",
        ["time", "detector", "accused", "kind"], rows[:10],
    ))

    correct = [fs for node, fs in result.final_fault_sets.items()
               if node != victim]
    print(f"attributed: every correct ECU converged on "
          f"{sorted(set().union(*correct))} (the silent node was {victim})")
    print(f"empirical recovery: "
          f"{to_seconds(smallest_sufficient_R(result)):.3f}s "
          f"(promise: {to_seconds(budget.total_us):.3f}s)")

    report = timeliness(result)
    print(f"brake/steering/engine outputs on time: "
          f"{report.on_time}/{report.total_slots} "
          f"({1 - report.miss_rate:.1%})")


if __name__ == "__main__":
    main()

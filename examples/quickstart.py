#!/usr/bin/env python3
"""Quickstart: deploy BTR on a small industrial workload, inject one
Byzantine fault, and verify bounded-time recovery (Definition 3.1).

Run:  python examples/quickstart.py
"""

from repro import BTRConfig, BTRSystem
from repro.analysis import (
    btr_verdict,
    recovery_times,
    smallest_sufficient_R,
    timeliness,
)
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.sim import to_seconds
from repro.workload import industrial_workload


def main() -> None:
    # 1. A periodic CPS workload: pressure/temperature sensors feeding a
    #    plant controller, a safety monitor, and lower-criticality tasks.
    workload = industrial_workload()          # period = 50 ms
    print(f"workload: {workload}")

    # 2. A controller cluster; sensors/actuators live on dedicated I/O
    #    nodes, computation on the rest.
    topology = full_mesh_topology(7, bandwidth=1e8)

    # 3. Offline planning: a plan for every fault pattern up to f=1, and
    #    the recovery bound the deployment can actually promise.
    system = BTRSystem(workload, topology, BTRConfig(f=1, seed=42))
    budget = system.prepare()
    print(f"plans computed: {len(system.strategy)}")
    print(f"achievable recovery bound R = {to_seconds(budget.total_us):.3f}s"
          f"  (detection {to_seconds(budget.detection_us):.3f}s"
          f" + distribution {to_seconds(budget.distribution_us):.3f}s"
          f" + switch {to_seconds(budget.switch_us):.3f}s"
          f" + settling {to_seconds(budget.settling_us):.3f}s)")

    # 4. Run 30 periods; at t = 220 ms the adversary compromises one node
    #    and makes it send wrong values (a Byzantine commission fault).
    fault = single_fault(system, "commission", at=220_000)
    result = system.run(n_periods=30, adversary=fault.script)
    print(f"\nrun: {result.summary()}")

    # 5. Verify Definition 3.1: outputs must be correct in every interval
    #    that starts R after the last fault manifestation.
    verdict = btr_verdict(result, R_us=budget.total_us)
    print(f"BTR holds with R = {to_seconds(budget.total_us):.3f}s: "
          f"{verdict.holds}")
    print(f"disrupted output slots (all excused): "
          f"{sum(s.status != 'correct' for s in verdict.slots)}")

    empirical = smallest_sufficient_R(result)
    print(f"empirical recovery time: {to_seconds(empirical):.3f}s "
          f"({empirical / budget.total_us:.0%} of the promised bound)")
    for node, t in recovery_times(result).items():
        print(f"  fault on {node}: recovered in {to_seconds(t):.3f}s")

    report = timeliness(result)
    print(f"\ntimeliness: {report.on_time}/{report.total_slots} output "
          f"slots on time (miss rate {report.miss_rate:.1%})")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The kR pacing attack: the paper's worst-case adversary (§3).

"If an adversary controls k ≤ f nodes, he can trigger a new fault every R
seconds and thus potentially force the system to produce bad outputs for kR
seconds; thus, if the system has an overall deadline D after which damage
can occur in the absence of correct outputs, it seems prudent to set
R := D/f rather than R := D."

This example provisions f = 2, lets the adversary burn its two nodes with
perfect pacing, and measures the *total* disrupted output time: it stays
below k·R, and a pendulum plant provisioned with D = k·R survives while
one provisioned assuming a single fault (D = R) does not.

Run:  python examples/adversary_pacing.py
"""

from repro import BTRConfig, BTRSystem
from repro.analysis import (
    classify_slots,
    format_table,
    recovery_times,
)
from repro.faults import paced
from repro.net import full_mesh_topology
from repro.sim import to_seconds
from repro.workload import industrial_workload

F = 2
N_PERIODS = 60


def main() -> None:
    workload = industrial_workload()  # period = 50 ms
    topology = full_mesh_topology(9, bandwidth=1e8)
    system = BTRSystem(workload, topology, BTRConfig(f=F, seed=17))
    budget = system.prepare()
    R = budget.total_us
    print(f"f = {F}; promised per-fault bound R = {to_seconds(R):.3f}s; "
          f"strategy holds {len(system.strategy)} plans")

    # Pace the second compromise to land right as recovery from the first
    # completes — the worst case the paper describes.
    attack = paced(system, F, start=200_000, interval=R)
    result = system.run(n_periods=N_PERIODS, adversary=attack.script)
    print(f"\nrun: {result.summary()}")

    per_fault = recovery_times(result)
    rows = [[node, f"{to_seconds(t_rec):.3f}s",
             "yes" if t_rec <= R else "NO"]
            for node, t_rec in sorted(per_fault.items())]
    print(format_table(
        "Per-fault recovery vs the promised bound R",
        ["faulty node", "recovery", "within R?"], rows,
    ))

    disrupted = [s for s in classify_slots(result)
                 if s.status != "correct" and not s.excused]
    total_disruption = sum(per_fault.values())
    print(f"total disrupted time across k={F} paced faults: "
          f"{to_seconds(total_disruption):.3f}s "
          f"<= k*R = {to_seconds(F * R):.3f}s: "
          f"{total_disruption <= F * R}")
    print(f"({len(disrupted)} disrupted output slots in "
          f"{N_PERIODS * len(workload.sink_flows())})")
    print("\nConclusion: damage deadlines must be budgeted as D = k*R, "
          "i.e. R := D/f — exactly the paper's rule.")


if __name__ == "__main__":
    main()

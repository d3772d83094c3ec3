#!/usr/bin/env python3
"""Power-substation scenario: protection relays, SCADA, and an incident.

The paper motivates BTR with exactly this class of system (§2 cites SCADA
security guidance and the Maroochy and German-steel-mill incidents): a
substation where protection relays must trip breakers within a hard
deadline while lower-criticality SCADA functions share the same platform.

This example deploys the substation workload, ships the planner's strategy
as the JSON artifact each controller would install, rides through a
compromised controller going silent, and prints where inside R the
recovery went: the phase report an operator would read afterwards (the
same text ``repro trace`` prints for the run's exported report).

Run:  python examples/power_grid.py
"""

from repro import BTRConfig, BTRSystem
from repro.analysis import (
    btr_verdict,
    criticality_survival,
    format_table,
    smallest_sufficient_R,
)
from repro.core.planner import strategy_to_json
from repro.faults import FaultScript, Injection, OmissionFault
from repro.net import dual_star_topology
from repro.obs import render_timeline
from repro.sim import to_seconds
from repro.workload import power_grid_workload


def main() -> None:
    # A substation network: dual redundant switches (sw0/sw1), controller
    # nodes hanging off both — the dual-star shape real substations use.
    workload = power_grid_workload(n_feeders=3)  # period = 40 ms
    topology = dual_star_topology(6, bandwidth=2e8)
    system = BTRSystem(workload, topology, BTRConfig(f=1, seed=53))
    budget = system.prepare()

    print(f"substation workload: {workload}")
    print(f"strategy: {len(system.strategy)} plans; promised recovery "
          f"R = {to_seconds(budget.total_us):.3f}s")

    # The artifact installed on every controller (§4.1).
    artifact = strategy_to_json(system.strategy)
    print(f"installed strategy artifact: {len(artifact) / 1024:.0f} KiB "
          f"of JSON\n")

    # Incident: a controller hosting relay replicas goes silent.
    victim = system.compromisable_nodes()[0]
    result = system.run(80, FaultScript([
        Injection(310_000, victim, OmissionFault(drop_probability=1.0)),
    ]))

    verdict = btr_verdict(result, R_us=budget.total_us)
    print(f"run: {result.summary()}")
    print(f"Definition 3.1 holds at R={to_seconds(budget.total_us):.3f}s: "
          f"{verdict.holds}")
    print(f"empirical recovery: "
          f"{to_seconds(smallest_sufficient_R(result)):.3f}s")

    survival = criticality_survival(result)
    print(format_table(
        "Output survival by criticality (A = breaker trips)",
        ["criticality", "survival"],
        [[level, f"{frac:.3f}"] for level, frac in survival.items()],
    ))

    print("incident timeline:")
    print(render_timeline(result))


if __name__ == "__main__":
    main()

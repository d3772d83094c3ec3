#!/usr/bin/env python3
"""Avionics scenario: flight control next to in-flight entertainment.

The paper's motivating example (§1): "the CPS on an airplane might run
flight control and the in-flight entertainment system. Thus, when a fault
occurs, the system can disable some of the less critical tasks and allocate
their resources to the more critical ones."

This example:
1. deploys the avionics workload (criticality A: control loop, B:
   navigation, C: telemetry, D: entertainment) on a dual-star (AFDX-style)
   backbone;
2. shows the per-mode criticality ladder the offline planner chose — which
   tasks each fault mode sheds;
3. injects a fault, and shows that criticality-A outputs recover within
   the bound while the entertainment system is sacrificed if needed;
4. closes the loop with the pitch-axis plant: the flight envelope holds
   because the outage is shorter than the airframe's tolerance R*.

Run:  python examples/avionics.py
"""

from repro import BTRConfig, BTRSystem
from repro.analysis import (
    PitchAxis,
    classify_slots,
    commands_from_slots,
    criticality_survival,
    format_table,
    smallest_sufficient_R,
)
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.sim import to_seconds
from repro.workload import avionics_workload


def main() -> None:
    workload = avionics_workload()  # period = 20 ms
    topology = full_mesh_topology(8, bandwidth=2e8)
    system = BTRSystem(workload, topology, BTRConfig(f=1, seed=7))
    budget = system.prepare()

    # --- the strategy's criticality ladder -------------------------------
    rows = []
    for pattern in system.strategy.patterns():
        plan = system.strategy.plan_for(pattern)
        shed = plan.shed_tasks(workload)
        rows.append([
            plan.mode,
            "".join(sorted(l.value for l in plan.kept_levels)),
            ", ".join(shed) if shed else "(nothing)",
        ])
    print(format_table(
        "Planner strategy: what each fault mode keeps and sheds",
        ["mode", "kept levels", "shed tasks"], rows,
    ))

    # --- fly through a fault ---------------------------------------------
    fault = single_fault(system, "commission", at=110_000)
    result = system.run(n_periods=60, adversary=fault.script)
    print(f"run: {result.summary()}")
    print(f"promised R: {to_seconds(budget.total_us):.3f}s; "
          f"empirical recovery: "
          f"{to_seconds(smallest_sufficient_R(result)):.3f}s")

    survival = criticality_survival(result)
    print(format_table(
        "Output survival by criticality (fraction of slots correct)",
        ["criticality", "survival"],
        [[level, f"{frac:.3f}"] for level, frac in survival.items()],
    ))
    if survival.get("A", 0) < min(1.0, survival.get("D", 1.0)):
        print("NOTE: flight control degraded more than entertainment — "
              "that would be a bug, not a feature.")

    # --- the five-second-rule argument, physically ------------------------
    # Feed the elevator command stream into the pitch-axis plant: correct
    # slots actuate properly; wrong slots actuate adversarially; missing
    # slots hold the last command.
    slots = [s for s in classify_slots(result)
             if s.flow == "elevator_cmd"]
    slots.sort(key=lambda s: s.period_index)
    commands = commands_from_slots([s.status for s in slots])
    dt = to_seconds(workload.period)

    plant = PitchAxis()
    safe = plant.run_sequence(dt, commands)
    r_star = PitchAxis().max_tolerable_outage(dt)
    disrupted = sum(1 for s in slots if s.status != "correct")
    print(f"pitch-axis envelope held through the fault: {safe}")
    print(f"  disrupted control periods: {disrupted}; airframe tolerates "
          f"up to {r_star} ({to_seconds(r_star * workload.period):.2f}s) — "
          f"inertia is what makes bounded-time recovery sufficient.")


if __name__ == "__main__":
    main()

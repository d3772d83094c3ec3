"""``repro compare``: run BTR and every baseline through the same fault
and print the comparison table (recovery, output correctness, traffic).

Every system keeps a full trace: the traffic column counts each hop."""

from __future__ import annotations

from typing import List

from ..analysis import (
    format_table,
    smallest_sufficient_R,
    timeliness,
    traffic_bits,
)
from ..baselines import BASELINES
from ..faults import BEHAVIORS, single_fault
from ..sim import seconds, to_seconds
from .flags import (
    FAULT_AT_S,
    add_deployment_flags,
    deployment,
    fault_time,
    number,
    planned,
)


def register(sub) -> None:
    p = sub.add_parser("compare", help="BTR vs baselines through one fault")
    add_deployment_flags(p)
    p.add_argument("--periods", type=number(int), default=30)
    p.add_argument("--fault", choices=sorted(BEHAVIORS),
                   default="commission")
    p.add_argument("--fault-at", type=number(float, zero_ok=True),
                   default=FAULT_AT_S)
    p.set_defaults(handler=handle)


def handle(args) -> int:
    fault_at = fault_time(args)
    rows = []

    system = planned(args)
    result = system.run(
        args.periods, single_fault(system, args.fault, at=fault_at).script)
    rows.append(_row("btr", result, args))

    named = deployment(args)
    for name, cls in BASELINES.items():
        baseline = cls(named.build_workload(), named.build_topology(),
                       f=named.f, seed=named.seed)
        baseline.prepare()
        result = baseline.run(
            args.periods,
            single_fault(baseline, args.fault, at=fault_at).script)
        rows.append(_row(name, result, args))

    print(format_table(
        f"One {args.fault} fault at t={args.fault_at}s "
        f"({args.workload} on {args.topology}, f={args.f})",
        ["system", "recovery", "on-time outputs", "data traffic"],
        rows,
    ))
    return 0


def _row(name: str, result, args) -> List[str]:
    recovery = smallest_sufficient_R(result, excused_flows={})
    horizon = (args.periods - 1) * result.workload.period
    if recovery is None:
        shown = "none"
    elif recovery >= horizon - seconds(args.fault_at):
        shown = "never"
    else:
        shown = f"{to_seconds(recovery):.3f}s"
    report = timeliness(result)
    data_bits = traffic_bits(result).get("data", 0)
    return [
        name,
        shown,
        f"{report.on_time}/{report.total_slots}",
        f"{data_bits / 1e6:.2f} Mbit",
    ]

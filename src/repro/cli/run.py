"""``repro run``: execute a deployment, optionally under a fault or a
staged scenario, and print the Definition 3.1 verdict, recovery time and
timeliness report.

The run records ``milestones`` traces: nothing it prints or exports
reads a hop row."""

from __future__ import annotations

import sys

from ..analysis import btr_verdict, smallest_sufficient_R, timeliness
from ..faults import (
    BEHAVIORS,
    ScenarioError,
    SingleFaultAdversary,
    stage,
)
from ..sim import to_seconds
from .flags import add_deployment_flags, fault_time, number, planned


def register(sub) -> None:
    p = sub.add_parser("run", help="run a deployment")
    add_deployment_flags(p)
    p.add_argument("--periods", type=number(int), default=30)
    p.add_argument("--fault", choices=sorted(BEHAVIORS),
                   default=None, help="inject one fault of this kind")
    p.add_argument("--fault-at", type=number(float, zero_ok=True),
                   default=0.22, help="fault injection time in seconds")
    p.add_argument("--timeline", action="store_true",
                   help="print the recovery phase report (the text "
                        "`repro trace` prints for this run's --obs file)")
    p.add_argument("--scenario", default=None,
                   help="stage a named scenario (see repro.faults."
                        "scenarios) instead of --fault")
    p.add_argument("--obs", metavar="FILE", default=None,
                   help="export the observability report (recovery "
                        "timelines + metrics) as JSON; render it with "
                        "`repro trace FILE`")
    p.set_defaults(handler=handle)


def handle(args) -> int:
    fault_at = fault_time(args) if args.fault and not args.scenario else None
    system = planned(args, trace_mode="milestones")
    budget = system.budget
    adversary = None
    link_script = None
    if args.scenario:
        try:
            scenario = stage(args.scenario, system)
        except ScenarioError as exc:
            print(f"repro run: {exc}", file=sys.stderr)
            return 2
        print(f"scenario: {scenario.name} - {scenario.description}")
        adversary = scenario.script
        link_script = scenario.link_script or None
    elif args.fault:
        adversary = SingleFaultAdversary(at=fault_at, kind=args.fault)
    result = system.run(n_periods=args.periods, adversary=adversary,
                        link_script=link_script)
    print(result.summary())
    verdict = btr_verdict(result, R_us=budget.total_us)
    report = timeliness(result)
    print(f"Definition 3.1 holds at R={to_seconds(budget.total_us):.3f}s: "
          f"{verdict.holds}")
    print(f"empirical recovery: "
          f"{to_seconds(smallest_sufficient_R(result)):.3f}s")
    print(f"timeliness: {report.on_time}/{report.total_slots} on time "
          f"({report.miss_rate:.1%} missed)")
    if args.timeline or args.obs:
        from ..obs import export_run, reconstruct_timelines, render_timeline
        timelines = reconstruct_timelines(result)
    if args.timeline:
        print("\nincident timeline:")
        print(render_timeline(result, timelines))
    if args.obs:
        export_run(result, args.obs, timelines=timelines)
        print(f"observability report written to {args.obs} "
              f"(render with: repro trace {args.obs})")
    return 0 if verdict.holds else 1

"""``repro run``: execute a deployment, optionally under a fault or a
staged scenario, and print the Definition 3.1 verdict, recovery time and
timeliness report.

The run records ``milestones`` traces: nothing it prints or exports
reads a hop row."""

from __future__ import annotations

from ..analysis import btr_verdict, smallest_sufficient_R, timeliness
from ..faults import BEHAVIORS, single_fault, stage
from ..sim import to_seconds
from .flags import (
    FAULT_AT_S,
    add_deployment_flags,
    fault_time,
    number,
    planned,
)


def register(sub) -> None:
    p = sub.add_parser("run", help="run a deployment")
    add_deployment_flags(p)
    p.add_argument("--periods", type=number(int), default=30)
    faults = p.add_mutually_exclusive_group()
    faults.add_argument("--fault", choices=sorted(BEHAVIORS),
                        default=None, help="inject one fault of this kind")
    faults.add_argument("--scenario", default=None,
                        help="stage a named scenario (see repro.faults."
                             "scenarios) instead of --fault")
    p.add_argument("--fault-at", type=number(float, zero_ok=True),
                   default=None,
                   help=f"--fault's injection time in seconds (default "
                        f"{FAULT_AT_S})")
    p.add_argument("--timeline", action="store_true",
                   help="print the recovery phase report (the text "
                        "`repro trace` prints for this run's --obs file)")
    p.add_argument("--obs", metavar="FILE", default=None,
                   help="export the observability report (recovery "
                        "timelines + metrics) as JSON; render it with "
                        "`repro trace FILE`")
    p.set_defaults(handler=handle)


def handle(args) -> int:
    if args.fault_at is not None and not args.fault:
        args.error("--fault-at needs --fault")
    fault_at = fault_time(args) if args.fault else None
    system = planned(args, trace_mode="milestones")
    budget = system.budget
    if args.scenario or args.fault:
        scenario = (stage(args.scenario, system) if args.scenario
                    else single_fault(system, args.fault, at=fault_at))
        print(f"scenario: {scenario.name} - {scenario.description}")
        result = system.run(args.periods, scenario.script,
                            link_script=scenario.link_script)
    else:
        result = system.run(args.periods)
    print(result.summary())
    verdict = btr_verdict(result, R_us=budget.total_us)
    report = timeliness(result)
    print(f"Definition 3.1 holds at R={to_seconds(budget.total_us):.3f}s: "
          f"{verdict.holds}")
    recovery = smallest_sufficient_R(result)
    print("empirical recovery: " + ("none" if recovery is None
                                    else f"{to_seconds(recovery):.3f}s"))
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

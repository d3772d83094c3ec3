"""``repro plan``: run the offline planner and print the strategy — one
row per fault pattern with its kept criticality levels and shed tasks,
plus the achievable recovery budget."""

from __future__ import annotations

from ..analysis import format_table
from ..sim import to_seconds
from .flags import add_deployment_flags, planned, write_json


def register(sub) -> None:
    p = sub.add_parser("plan", help="run the offline planner")
    add_deployment_flags(p)
    p.add_argument("--export", metavar="FILE", default=None,
                   help="write the strategy (the per-node artifact) as JSON")
    p.set_defaults(handler=handle)


def handle(args) -> int:
    system = planned(args)
    budget = system.budget
    rows = []
    for pattern in system.strategy.patterns():
        plan = system.strategy.plan_for(pattern)
        shed = plan.shed_tasks(system.workload)
        rows.append([
            plan.mode,
            "".join(sorted(l.value for l in plan.kept_levels)),
            f"{plan.schedule.makespan() / 1000:.1f}ms",
            ", ".join(shed) if shed else "-",
        ])
    print(format_table(
        f"Strategy: {len(system.strategy)} plans "
        f"({args.workload} on {args.topology}, f={args.f})",
        ["mode", "kept", "makespan", "shed tasks"], rows,
    ))
    print(f"recovery budget: {to_seconds(budget.total_us):.3f}s "
          f"(detection {to_seconds(budget.detection_us):.3f}s, "
          f"distribution {to_seconds(budget.distribution_us):.3f}s, "
          f"switch {to_seconds(budget.switch_us):.3f}s, "
          f"settling {to_seconds(budget.settling_us):.3f}s)")
    stats = system.plan_stats
    print(f"planning: {stats.wall_s:.3f}s wall "
          f"({stats.plans_computed} computed)")
    if args.export:
        import json

        from ..core.planner import strategy_to_json
        write_json(args.export, json.loads(strategy_to_json(
            system.strategy)), "strategy")
    return 0

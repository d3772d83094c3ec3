"""``repro verify``: statically verify a strategy (freshly planned, or a
``plan --export`` artifact) against the rule catalogue in
:mod:`repro.verify` — schedule soundness, placement validity,
route/bandwidth feasibility, mode-graph completeness. Exits nonzero on
any error finding (and on warnings with ``--strict``)."""

from __future__ import annotations

import sys

from .flags import add_deployment_flags, deployment, planned


def register(sub) -> None:
    p = sub.add_parser(
        "verify", help="statically verify a strategy (plans + mode graph)")
    add_deployment_flags(p)
    p.add_argument("--strategy", metavar="FILE", default=None,
                   help="verify an exported strategy JSON instead of "
                        "planning afresh")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--waive", action="append", default=[],
                   metavar="RULE[:SUBJECT]",
                   help="drop findings of RULE (optionally only for "
                        "SUBJECT) before the verdict; repeatable. Use to "
                        "accept a documented hazard without giving up "
                        "--strict for everything else")
    p.set_defaults(handler=handle)


def handle(args) -> int:
    from ..verify import RULES, verify_strategy

    if args.rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}: {RULES[rule_id]}")
        return 0

    if args.strategy:
        from ..core.planner import StrategyFormatError, strategy_from_json
        # Unprepared: the deployment's placement, router and lanes only.
        system = deployment(args).system()
        try:
            with open(args.strategy, "rb") as f:
                strategy = strategy_from_json(f.read())
        except (OSError, StrategyFormatError) as exc:
            print(f"repro verify: cannot read strategy file: {exc}",
                  file=sys.stderr)
            return 2
        origin = args.strategy
    else:
        system = planned(args)
        strategy = system.strategy
        origin = "freshly planned"

    report = verify_strategy(strategy, system.topology, router=system.router,
                             config=system.config,
                             lane_model=system.lane_model,
                             budget=system.budget)
    if args.waive:
        report = report.waive(args.waive)
    print(report.render(
        title=(f"repro verify: {len(strategy)} plans, f={strategy.f} "
               f"({args.workload} on {args.topology}, {origin})")))
    return report.exit_code(strict=args.strict)

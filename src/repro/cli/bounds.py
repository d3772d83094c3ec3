"""``repro bounds``: derive the analytic worst-case recovery bound per
fault class and mode from the prepared artifacts
(:mod:`repro.verify.bounds`) and compare it with the planned budget.
Exits 1 when a bound exceeds it."""

from __future__ import annotations

from ..persist import json_text, write_atomic
from ..sim import seconds
from .flags import add_deployment_flags, number, planned


def register(sub) -> None:
    p = sub.add_parser(
        "bounds", help="analytic worst-case recovery bounds (Layer 4) "
                       "per fault class and mode, vs the planned budget")
    add_deployment_flags(p)
    p.add_argument("--R", type=number(float), default=None, dest="R",
                   metavar="SECONDS",
                   help="pin the promised recovery bound R (default: the "
                        "computed budget); pinning makes "
                        "bound.exceeds-budget fatal")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="export the bounds report as JSON")
    p.set_defaults(handler=handle)


def handle(args) -> int:
    from ..verify.bounds import compute_bounds

    system = planned(args)
    # Pin R on the *analysis* config only: prepare() rejects a pinned
    # R the budget cannot meet, but the whole point of
    # ``repro bounds --R`` is to report how far an aspirational R
    # falls short, so the comparison happens after planning.
    bounds_config = system.config
    if args.R is not None:
        from dataclasses import replace
        bounds_config = replace(system.config, R_us=seconds(args.R))
    report = compute_bounds(system.strategy, system.topology,
                            system.lane_model, bounds_config,
                            budget=system.budget)
    print(report.render(
        title=(f"repro bounds: f={report.f}, period={report.period_us}us "
               f"({args.workload} on {args.topology})")))
    if args.json:
        write_atomic(args.json, json_text(report.to_dict()) + "\n")
        print(f"bounds report written to {args.json}")
    return 1 if report.exceeding() else 0

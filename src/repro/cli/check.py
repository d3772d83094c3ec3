"""``repro check``: bounded model checking of the mode-switch protocol.

Explore the product space of adversary choices × delivery orderings on a
small config, check the ``kR`` bound, agreement, and mode reachability
on every path, and either certify the config or emit a minimised,
replay-confirmed counterexample (``repro replay`` re-runs it). Exits 0
when certified, 1 on violations (or truncation), 2 on input it cannot
use."""

from __future__ import annotations

from .flags import add_deployment_flags, number, write_json
from .search import (
    add_search_flags,
    print_counterexample,
    run_search,
    write_artifacts,
)


def register(sub) -> None:
    p = sub.add_parser(
        "check", help="bounded model checking of the mode-switch protocol")
    add_deployment_flags(p)
    add_search_flags(p, ["crash", "commission"])
    p.add_argument("--max-depth", type=number(int, zero_ok=True),
                   default=2,
                   help="max delivery perturbations along one path")
    p.add_argument("--branch", type=number(int), default=3,
                   help="max candidate perturbations per expansion")
    p.add_argument("--delay-quantum-us", type=number(int), default=2000,
                   help="extra delay per perturbation, microseconds")
    p.add_argument("--max-states", type=number(int), default=400,
                   help="per-cell path cap; exceeding it leaves the "
                        "campaign uncertified")
    p.add_argument("--no-prune", action="store_true",
                   help="disable sleep-set pruning of commuting "
                        "deliveries (explores the pruned branches too)")
    p.add_argument("--no-nominal", action="store_true",
                   help="skip the fault-free cell")
    p.set_defaults(handler=handle)


def handle(args) -> int:
    from ..mc import CheckParams, run_campaign

    report, stats, wall = run_search(
        args, "check", "path", run_campaign, CheckParams,
        max_depth=args.max_depth,
        branch=args.branch,
        delay_quantum_us=args.delay_quantum_us,
        max_paths=args.max_states,
        prune=not args.no_prune,
        include_fault_free=not args.no_nominal,
    )

    totals = report["totals"]
    dedup_rate = (totals["dedup_hits"] / totals["paths"]
                  if totals["paths"] else 0.0)
    print(f"explored {totals['paths']} paths in {totals['cells']} cells: "
          f"{totals['distinct_states']} distinct states, "
          f"dedup hit-rate {dedup_rate:.0%}, "
          f"{totals['pruned']} branches pruned "
          + wall(totals["paths"]))
    for violation in report["static_violations"]:
        print(f"  [static] [{violation['invariant']}] "
              f"{violation['detail']}")

    counterexamples = []
    for cell in report["cells"]:
        if cell["truncated"]:
            print(f"  {cell['cell']} truncated at "
                  f"{cell['paths']} paths — raise --max-states to certify")
        artifact = cell.get("counterexample")
        if artifact is None:
            continue
        counterexamples.append(artifact)
        print_counterexample(
            artifact,
            f"{len(artifact['deliveries'])} delivery perturbation(s)")

    write_artifacts(args, counterexamples)
    if args.report:
        write_json(args.report, report, "campaign report")

    if report["certified"]:
        print("CERTIFIED: all invariants hold on every explored path")
        return 0
    print("NOT CERTIFIED")
    return 1

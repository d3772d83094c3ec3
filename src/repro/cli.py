"""Command-line interface: ``python -m repro <command>``.

Eight commands:

``plan``
    Run the offline planner and print the strategy: one row per fault
    pattern with its kept criticality levels and shed tasks, plus the
    achievable recovery budget.

``run``
    Execute a deployment, optionally under a fault, and print the
    Definition 3.1 verdict, recovery time, and timeliness report.

``compare``
    Run BTR and every baseline through the same fault and print the
    comparison table (recovery, output correctness, traffic).

``verify``
    Statically verify a strategy (freshly planned, or a ``plan
    --export`` artifact) against the rule catalogue in
    :mod:`repro.verify`: schedule soundness, placement validity,
    route/bandwidth feasibility, mode-graph completeness. Exits
    nonzero on any error finding (and on warnings with ``--strict``).

``bounds``
    Derive the analytic worst-case recovery bound per fault class and
    mode from the prepared artifacts (:mod:`repro.verify.bounds`) and
    compare it with the planned budget. Exits 1 when a bound exceeds it.

``trace``
    Render a saved observability report (``run --obs FILE``): the
    per-fault recovery phase breakdown, the budget-attribution table,
    and any dropped-message counters.

``check``
    Bounded model checking of the mode-switch protocol: explore the
    product space of adversary choices × delivery orderings on a small
    config, check the ``kR`` bound, agreement, and mode reachability on
    every path, and either certify the config or emit a minimised,
    replay-confirmed counterexample. Exits 0 when certified, 1 on
    violations (or truncation), 2 on usage errors.

``fuzz``
    Coverage-guided adversary fuzzing (``campaign`` / ``replay`` /
    ``corpus-check``): a seeded generator mutates fault scripts along
    the adversary's axes, climbs a recovery-timeline fitness signal
    toward the ``kR`` bound, and emits minimised, replay-confirmed
    counterexamples into a corpus of regression benchmarks.
    ``campaign`` exits 1 when it finds a violation; ``corpus-check``
    exits 1 when any checked-in entry stops reproducing.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from . import BTRConfig, BTRSystem
from .analysis import (
    btr_verdict,
    format_table,
    smallest_sufficient_R,
    timeliness,
    traffic_bits,
)
from .baselines import (
    BFTSystem,
    CrashRestartSystem,
    SelfStabilizingSystem,
    UnreplicatedSystem,
    ZZSystem,
)
from .core.planner import PlanningError
from .faults import BEHAVIOR_FACTORIES, SingleFaultAdversary
from .net import (
    TopologyError,
    bus_topology,
    dual_star_topology,
    full_mesh_topology,
    geo_topology,
    line_topology,
    mesh_topology,
    ring_topology,
    star_topology,
)
from .sim import TRACE_MODES, seconds, to_seconds
from .workload import WORKLOADS, stretched_workload

BASELINES = {
    "unreplicated": UnreplicatedSystem,
    "bft": BFTSystem,
    "zz": ZZSystem,
    "selfstab": SelfStabilizingSystem,
    "crash_restart": CrashRestartSystem,
}


def make_topology(spec: str, bandwidth: float):
    """Parse a topology spec like ``fullmesh:7``, ``mesh:3x3``,
    ``geo:3x8`` (regions x nodes-per-region), ``ring:6``."""
    kind, _, arg = spec.partition(":")
    builders = {
        "fullmesh": lambda a: full_mesh_topology(int(a), bandwidth=bandwidth),
        "ring": lambda a: ring_topology(int(a), bandwidth=bandwidth),
        "line": lambda a: line_topology(int(a), bandwidth=bandwidth),
        "star": lambda a: star_topology(int(a), bandwidth=bandwidth),
        "bus": lambda a: bus_topology(int(a), bandwidth=bandwidth),
        "dualstar": lambda a: dual_star_topology(int(a),
                                                 bandwidth=bandwidth),
        "mesh": lambda a: mesh_topology(*map(int, a.split("x")),
                                        bandwidth=bandwidth),
        "geo": lambda a: geo_topology(*map(int, a.split("x")),
                                      bandwidth=bandwidth),
    }
    if kind not in builders:
        raise SystemExit(
            f"unknown topology {kind!r}; choose from "
            f"{', '.join(sorted(builders))}"
        )
    try:
        return builders[kind](arg or "7")
    except (TypeError, ValueError, TopologyError) as exc:
        raise SystemExit(f"malformed topology {spec!r}: {exc}") from None


def number(kind, zero_ok: bool = False):
    """An argparse ``type=`` for a finite ``kind`` value that is
    positive — or, with ``zero_ok``, not negative (where 0 means
    something, e.g. "auto-size"). Anything else fails through argparse:
    one line naming the flag, exit 2."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not (math.isfinite(value)
                and (value > 0 or (zero_ok and value == 0))):
            raise argparse.ArgumentTypeError(
                f"must be {'>= 0' if zero_ok else '> 0'}, got {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bounded-time recovery (BTR) for cyber-physical "
                    "systems — HotOS XV reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.set_defaults(error=p.error)  # for config_from_args
        p.add_argument("--workload", choices=sorted(WORKLOADS),
                       default="industrial")
        p.add_argument("--topology", default="fullmesh:7",
                       help="e.g. fullmesh:7, ring:6, mesh:3x3")
        p.add_argument("--bandwidth", type=float, default=1e8,
                       help="raw link bandwidth in bit/s")
        p.add_argument("--f", type=int, default=1, dest="f",
                       help="fault budget")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--cache", metavar="DIR", default=None,
                       help="strategy cache directory (default: "
                            "$REPRO_STRATEGY_CACHE if set)")
        p.add_argument("--no-cache", action="store_true",
                       help="replan even if $REPRO_STRATEGY_CACHE is set")
        p.add_argument("--stretch", type=number(int), default=1,
                       metavar="K",
                       help="run the workload at Kx slower periods and "
                            "deadlines (geo deployments: WAN latency "
                            "must fit inside control deadlines)")
        p.add_argument("--trace-mode", choices=list(TRACE_MODES),
                       default="full",
                       help="trace recording fidelity: full keeps every "
                            "event, milestones keeps recovery milestones "
                            "and tallies per-hop traffic")

    plan = sub.add_parser("plan", help="run the offline planner")
    common(plan)
    plan.add_argument("--export", metavar="FILE", default=None,
                      help="write the strategy (the per-node artifact) "
                           "as JSON")

    run = sub.add_parser("run", help="run a deployment")
    common(run)
    run.add_argument("--periods", type=number(int), default=30)
    run.add_argument("--fault", choices=sorted(BEHAVIOR_FACTORIES),
                     default=None, help="inject one fault of this kind")
    run.add_argument("--fault-at", type=number(float, zero_ok=True),
                     default=0.22,
                     help="fault injection time in seconds")
    run.add_argument("--timeline", action="store_true",
                     help="print the incident timeline")
    run.add_argument("--scenario", default=None,
                     help="stage a named scenario (see repro.faults."
                          "scenarios) instead of --fault")
    run.add_argument("--obs", metavar="FILE", default=None,
                     help="export the observability report (recovery "
                          "timelines + metrics) as JSON; render it with "
                          "`repro trace FILE`")

    compare = sub.add_parser("compare",
                             help="BTR vs baselines through one fault")
    common(compare)
    compare.add_argument("--periods", type=number(int), default=30)
    compare.add_argument("--fault", choices=sorted(BEHAVIOR_FACTORIES),
                         default="commission")
    compare.add_argument("--fault-at", type=number(float, zero_ok=True),
                         default=0.22)

    verify = sub.add_parser(
        "verify", help="statically verify a strategy (plans + mode graph)")
    common(verify)
    verify.add_argument("--strategy", metavar="FILE", default=None,
                        help="verify an exported strategy JSON instead of "
                             "planning afresh")
    verify.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    verify.add_argument("--rules", action="store_true",
                        help="print the rule catalogue and exit")
    verify.add_argument("--waive", action="append", default=[],
                        metavar="RULE[:SUBJECT]",
                        help="drop findings of RULE (optionally only for "
                             "SUBJECT) before the verdict; repeatable. "
                             "Use to accept a documented hazard without "
                             "giving up --strict for everything else")

    bounds = sub.add_parser(
        "bounds", help="analytic worst-case recovery bounds (Layer 4) "
                       "per fault class and mode, vs the planned budget")
    common(bounds)
    bounds.add_argument("--R", type=number(float), default=None, dest="R",
                        metavar="SECONDS",
                        help="pin the promised recovery bound R "
                             "(default: the computed budget); pinning "
                             "makes bound.exceeds-budget fatal")
    bounds.add_argument("--json", metavar="FILE", default=None,
                        help="export the bounds report as JSON")

    trace = sub.add_parser(
        "trace", help="render a saved observability report")
    trace.add_argument("report", metavar="RUN_JSON",
                       help="a report written by `repro run --obs FILE`")

    def search(p, kinds):
        """The flags ``check`` and ``fuzz campaign`` share."""
        p.add_argument("--periods", type=number(int, zero_ok=True),
                       default=0,
                       help="simulated periods per run (0 = auto-size so "
                            "the latest injection plus the recovery "
                            "budget fits)")
        p.add_argument("--kinds", nargs="+", metavar="KIND",
                       choices=sorted(BEHAVIOR_FACTORIES), default=kinds,
                       help="fault kinds the adversary may pick")
        p.add_argument("--window", nargs=2, type=float, default=[2.0, 3.0],
                       metavar=("LO", "HI"),
                       help="injection window in periods: faults land in "
                            "[LO*P, HI*P]")
        p.add_argument("--ticks", type=number(int), default=2,
                       help="injection ticks sampled across the window")
        p.add_argument("--R", type=number(float), default=None, dest="R",
                       help="recovery bound to check, in seconds "
                            "(default: the prepared budget)")
        p.add_argument("--k", type=number(int), default=1,
                       help="adversary strength multiplier: bound is k*R")
        p.add_argument("--workers", type=number(int), default=1,
                       help="worker processes (the report is "
                            "byte-identical for every value)")
        p.add_argument("--report", metavar="FILE", default=None,
                       help="write the full campaign report as JSON")

    check = sub.add_parser(
        "check", help="bounded model checking of the mode-switch protocol")
    common(check)
    search(check, ["crash", "commission"])
    check.add_argument("--max-depth", type=number(int, zero_ok=True),
                       default=2,
                       help="max delivery perturbations along one path")
    check.add_argument("--branch", type=number(int), default=3,
                       help="max candidate perturbations per expansion")
    check.add_argument("--delay-quantum-us", type=number(int),
                       default=2000,
                       help="extra delay per perturbation, microseconds")
    check.add_argument("--max-states", type=number(int), default=400,
                       help="per-cell path cap; exceeding it leaves the "
                            "campaign uncertified")
    check.add_argument("--no-prune", action="store_true",
                       help="disable sleep-set pruning of commuting "
                            "deliveries (explores the pruned branches too)")
    check.add_argument("--no-nominal", action="store_true",
                       help="skip the fault-free cell")
    check.add_argument("--cex-dir", metavar="DIR", default=None,
                       help="write each counterexample artifact into DIR")
    check.add_argument("--replay", metavar="FILE", default=None,
                       help="replay a counterexample artifact through the "
                            "normal run path instead of exploring")

    fuzz = sub.add_parser(
        "fuzz", help="coverage-guided adversary fuzzing")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_campaign = fuzz_sub.add_parser(
        "campaign", help="run one seeded fuzz campaign")
    common(fuzz_campaign)
    search(fuzz_campaign, ["crash", "commission", "omission", "timing"])
    fuzz_campaign.add_argument(
        "--generations", type=number(int, zero_ok=True), default=4,
        help="mutation generations after the seed generation")
    fuzz_campaign.add_argument(
        "--batch", type=number(int), default=8,
        help="mutants generated per generation")
    fuzz_campaign.add_argument(
        "--elite", type=number(int), default=4,
        help="top-fitness survivors eligible as mutation parents")
    fuzz_campaign.add_argument(
        "--max-injections", type=number(int), default=1,
        help="max injections per script (the paper's k)")
    fuzz_campaign.add_argument(
        "--max-artifacts", type=number(int, zero_ok=True), default=8,
        help="cap on minimised counterexample artifacts")
    fuzz_campaign.add_argument(
        "--corpus-dir", metavar="DIR", default=None,
        help="write each replay-confirmed counterexample into DIR "
             "(content-named, append-only)")

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-manifest one saved counterexample")
    common(fuzz_replay)
    fuzz_replay.add_argument("artifact", metavar="FILE",
                             help="a counterexample artifact JSON")

    fuzz_corpus = fuzz_sub.add_parser(
        "corpus-check",
        help="replay every corpus entry (the regression gate)")
    common(fuzz_corpus)
    fuzz_corpus.add_argument("--corpus", metavar="DIR", default="corpus",
                             help="corpus directory (default: corpus)")
    fuzz_corpus.add_argument("--report", metavar="FILE", default=None,
                             help="write the check report as JSON")
    return parser


def workload_from_args(args):
    """The workload selected by the common CLI flags, stretched to
    ``--stretch``x periods/deadlines (see
    :func:`~repro.workload.stretched_workload`)."""
    workload = WORKLOADS[args.workload]()
    if getattr(args, "stretch", 1) > 1:
        workload = stretched_workload(workload, args.stretch)
    return workload


def config_from_args(args) -> BTRConfig:
    """The BTRConfig encoded by the common CLI flags."""
    cache = None
    if not args.no_cache:
        if args.cache is not None:
            cache = args.cache
        else:
            from .perf import default_cache_dir
            cache = default_cache_dir()
    try:
        return BTRConfig(f=args.f, seed=args.seed, cache=cache,
                         trace_mode=args.trace_mode)
    except ValueError as exc:
        args.error(str(exc))  # the subcommand's parser.error: exits 2


def prepared_system(args) -> BTRSystem:
    """The deployment the common CLI flags select, planned."""
    system = BTRSystem(workload_from_args(args),
                       make_topology(args.topology, args.bandwidth),
                       config_from_args(args))
    system.prepare()
    return system


def cmd_plan(args) -> int:
    system = prepared_system(args)
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
    how = (f"cache hit ({stats.cache_key[:12]})" if stats.cache_hit
           else f"{stats.plans_computed} computed")
    print(f"planning: {stats.wall_s:.3f}s wall ({how})")
    if args.export:
        import json

        from .core.planner import strategy_to_json
        artifact = json.loads(strategy_to_json(system.strategy))
        with open(args.export, "w") as f:
            f.write(json.dumps(artifact, indent=2, sort_keys=True))
        print(f"strategy written to {args.export}")
    return 0


def cmd_run(args) -> int:
    system = prepared_system(args)
    budget = system.budget
    adversary = None
    link_script = None
    if args.scenario:
        from .faults import stage
        scenario = stage(args.scenario, system)
        print(f"scenario: {scenario.name} - {scenario.description}")
        adversary = scenario.script
        link_script = scenario.link_script or None
    elif args.fault:
        adversary = SingleFaultAdversary(at=seconds(args.fault_at),
                                         kind=args.fault)
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
    if args.timeline:
        from .analysis import render_timeline
        print("\nincident timeline:")
        print(render_timeline(result))
    if args.obs:
        from .obs import export_run
        export_run(result, args.obs)
        print(f"observability report written to {args.obs} "
              f"(render with: repro trace {args.obs})")
    return 0 if verdict.holds else 1


def cmd_trace(args) -> int:
    from .obs import load_report, render_phase_report

    try:
        report = load_report(args.report)
    except (OSError, ValueError) as exc:
        print(f"repro trace: cannot read report: {exc}", file=sys.stderr)
        return 2
    print(render_phase_report(report))
    return 0


def cmd_verify(args) -> int:
    from .verify import RULES, verify_strategy

    if args.rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}: {RULES[rule_id]}")
        return 0

    if args.strategy:
        from .core.planner import StrategyFormatError, strategy_from_json
        # Unprepared: the deployment's placement, router and lanes only.
        system = BTRSystem(workload_from_args(args),
                           make_topology(args.topology, args.bandwidth),
                           config_from_args(args))
        try:
            with open(args.strategy) as f:
                strategy = strategy_from_json(f.read())
        except (OSError, StrategyFormatError) as exc:
            print(f"repro verify: cannot read strategy file: {exc}",
                  file=sys.stderr)
            return 2
        origin = args.strategy
    else:
        system = prepared_system(args)
        strategy = system.strategy
        origin = "freshly planned"
        if system.plan_stats.cache_hit:
            origin = "from cache"

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


def cmd_bounds(args) -> int:
    from .verify.bounds import compute_bounds

    system = prepared_system(args)
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
        import json
        with open(args.json, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bounds report written to {args.json}")
    return 1 if report.exceeding() else 0


def cmd_compare(args) -> int:
    fault_at = seconds(args.fault_at)
    rows = []

    system = prepared_system(args)
    result = system.run(args.periods,
                        SingleFaultAdversary(at=fault_at, kind=args.fault))
    rows.append(_compare_row("btr", result, args))

    for name, cls in BASELINES.items():
        workload = workload_from_args(args)
        topology = make_topology(args.topology, args.bandwidth)
        baseline = cls(workload, topology, f=args.f, seed=args.seed)
        baseline.prepare()
        result = baseline.run(
            args.periods,
            SingleFaultAdversary(at=fault_at, kind=args.fault))
        rows.append(_compare_row(name, result, args))

    print(format_table(
        f"One {args.fault} fault at t={args.fault_at}s "
        f"({args.workload} on {args.topology}, f={args.f})",
        ["system", "recovery", "on-time outputs", "data traffic"],
        rows,
    ))
    return 0


def _compare_row(name: str, result, args) -> List[str]:
    recovery = smallest_sufficient_R(result, excused_flows={})
    horizon = (args.periods - 1) * result.workload.period
    never = recovery >= horizon - seconds(args.fault_at)
    report = timeliness(result)
    data_bits = traffic_bits(result).get("data", 0)
    return [
        name,
        "never" if never else f"{to_seconds(recovery):.3f}s",
        f"{report.on_time}/{report.total_slots}",
        f"{data_bits / 1e6:.2f} Mbit",
    ]


def _system_for_meta(meta: dict, args) -> BTRSystem:
    """A prepared system on the deployment an artifact's meta pins.

    CLI flags fill any gaps so hand-built artifacts remain replayable;
    the workload runs unstretched, as it was searched.
    """
    pinned = {key: meta[key] for key in
              ("workload", "topology", "bandwidth", "f", "seed")
              if key in meta}
    return prepared_system(
        argparse.Namespace(**{**vars(args), "stretch": 1, **pinned}))


def _replay_artifact(path: str, args) -> int:
    """Re-manifest a saved counterexample through the normal run path."""
    import json

    from .mc import replay_counterexample
    from .mc.counterexample import counterexample_from_dict

    try:
        with open(path) as f:
            payload = json.load(f)
        cell, deliveries = counterexample_from_dict(payload)
    except (OSError, ValueError) as exc:
        print(f"repro check: cannot replay artifact: {exc}",
              file=sys.stderr)
        return 2
    system = _system_for_meta(payload.get("meta") or {}, args)
    violations, result = replay_counterexample(system, payload)
    print(f"replaying {cell.label()} with "
          f"{len(deliveries)} delivery perturbation(s) over "
          f"{payload['n_periods']} periods (R={payload['R_us']}us, "
          f"k={payload['k']})")
    print(result.summary())
    if violations:
        print(f"replay CONFIRMS {len(violations)} violation(s):")
        for violation in violations:
            print(f"  [{violation.invariant}] {violation.detail}")
        return 1
    print("replay does NOT reproduce the violation")
    return 0


def _write_json(path: str, payload, what: str, hint: str = "") -> None:
    import json

    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"{what} written to {path}{hint}")


def _search_campaign(args, verb: str, per: str, run, params_cls, **own):
    """What ``check`` and ``fuzz campaign`` share: params (search flags +
    the verb's ``own`` fields), artifact ``meta``, the campaign itself,
    the header line. ``wall(rate)`` renders the summary's stats clause.
    """
    params = params_cls(
        kinds=tuple(sorted(set(args.kinds))),
        window=(args.window[0], args.window[1]),
        ticks=args.ticks,
        n_periods=args.periods,
        R_us=None if args.R is None else seconds(args.R),
        k=args.k,
        workers=args.workers,
        seed=args.seed,
        **own,
    )
    meta = {"workload": args.workload, "topology": args.topology,
            "bandwidth": args.bandwidth, "f": args.f, "seed": args.seed}
    report, stats = run(workload_from_args(args),
                        make_topology(args.topology, args.bandwidth),
                        config_from_args(args), params=params, meta=meta)
    resolved = report["params"]
    print(f"repro {verb}: {args.workload} on {args.topology}, f={args.f}, "
          f"R={resolved['R_us']}us, k={resolved['k']}, "
          f"{resolved['n_periods']} periods/{per}")

    def wall(rate: float) -> str:
        return (f"({stats.wall_s:.2f}s wall, {rate:.1f} {per}s/s, "
                f"workers={stats.workers}"
                + (", pool fallback" if stats.pool_fallback else "") + ")")

    return report, stats, wall


def _print_counterexample(artifact: dict, size: str) -> None:
    from .mc import Cell

    confirmed = ("replay-confirmed" if artifact["replay_confirmed"]
                 else "NOT replay-confirmed")
    print(f"  counterexample ({Cell.from_dict(artifact['cell']).label()}, "
          f"{size}, {confirmed}):")
    for violation in artifact["violations"]:
        print(f"    [{violation['invariant']}] {violation['detail']}")


def cmd_check(args) -> int:
    import os

    if args.replay:
        return _replay_artifact(args.replay, args)

    from .mc import CheckParams, run_campaign

    report, stats, wall = _search_campaign(
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
          + wall(stats.states_per_sec))
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
        _print_counterexample(
            artifact,
            f"{len(artifact['deliveries'])} delivery perturbation(s)")

    if args.cex_dir and counterexamples:
        os.makedirs(args.cex_dir, exist_ok=True)
        for i, artifact in enumerate(counterexamples):
            path = os.path.join(args.cex_dir, f"cex_{i}.json")
            _write_json(path, artifact, "  counterexample",
                        f" (replay with: repro check --replay {path})")
    if args.report:
        _write_json(args.report, report, "campaign report")

    if report["certified"]:
        print("CERTIFIED: all invariants hold on every explored path")
        return 0
    print("NOT CERTIFIED")
    return 1


def _fuzz_campaign(args) -> int:
    from .fuzz import FuzzParams, run_fuzz_campaign, write_corpus

    report, stats, wall = _search_campaign(
        args, "fuzz", "run", run_fuzz_campaign, FuzzParams,
        generations=args.generations,
        batch=args.batch,
        elite=args.elite,
        max_injections=args.max_injections,
        max_artifacts=args.max_artifacts,
    )

    print(f"evaluated {report['evaluated']} scripts over "
          f"{len(report['generations'])} generations: "
          f"{len(report['coverage'])} coverage keys, "
          f"best fitness {report['best_fitness']} "
          + wall(stats.runs_per_sec))

    for artifact in report["counterexamples"]:
        _print_counterexample(
            artifact,
            f"{len(artifact['fault_script']['injections'])} injection(s)")
    if args.corpus_dir:
        confirmed = [a for a in report["counterexamples"]
                     if a["replay_confirmed"]]
        for path in write_corpus(args.corpus_dir, confirmed):
            print(f"  corpus entry written to {path} "
                  f"(replay with: repro fuzz replay {path})")
    if args.report:
        _write_json(args.report, report, "campaign report")

    if report["found"]:
        print(f"FOUND {report['violating_scripts']} violating script(s), "
              f"{len(report['counterexamples'])} minimised "
              f"counterexample(s)")
        return 1
    print("no violation found at this budget")
    return 0


def _fuzz_corpus_check(args) -> int:
    from .fuzz import check_corpus, load_corpus

    try:
        entries = load_corpus(args.corpus)
    except (OSError, ValueError) as exc:
        print(f"repro fuzz: cannot load corpus: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"repro fuzz: corpus {args.corpus} is empty")
        return 0
    report = check_corpus(args.corpus,
                          lambda meta: _system_for_meta(meta, args),
                          entries=entries)
    for entry in report["entries"]:
        status = ("ok" if entry["confirmed"] and entry["digest_match"]
                  else "FAIL")
        detail = ",".join(entry["observed"]) or "none"
        print(f"  {entry['name']}: {status} "
              f"(recorded {','.join(entry['recorded'])}; "
              f"replayed {detail}"
              + ("" if entry["digest_match"] else "; digest mismatch")
              + ")")
    print(f"corpus: {report['checked']} entries, "
          f"{report['failed']} failing")
    if args.report:
        _write_json(args.report, report, "corpus report")
    return 0 if report["ok"] else 1


def cmd_fuzz(args) -> int:
    if args.fuzz_command == "campaign":
        return _fuzz_campaign(args)
    if args.fuzz_command == "replay":
        return _replay_artifact(args.artifact, args)
    return _fuzz_corpus_check(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "plan": cmd_plan,
        "run": cmd_run,
        "compare": cmd_compare,
        "verify": cmd_verify,
        "bounds": cmd_bounds,
        "trace": cmd_trace,
        "check": cmd_check,
        "fuzz": cmd_fuzz,
    }[args.command]
    try:
        return handler(args)
    except PlanningError as exc:
        print(f"repro {args.command}: unschedulable deployment: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

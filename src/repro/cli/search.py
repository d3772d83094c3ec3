"""What ``check`` and ``fuzz campaign`` share: the search flags, the
campaign preamble and counterexample printing."""

from __future__ import annotations

from ..faults import BEHAVIOR_FACTORIES
from ..sim import seconds
from .flags import cache_dir, deployment, number


def add_search_flags(p, kinds) -> None:
    """The flags ``check`` and ``fuzz campaign`` share."""
    p.add_argument("--periods", type=number(int, zero_ok=True), default=0,
                   help="simulated periods per run (0 = auto-size so the "
                        "latest injection plus the recovery budget fits)")
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
                   help="recovery bound to check, in seconds (default: "
                        "the prepared budget)")
    p.add_argument("--k", type=number(int), default=1,
                   help="adversary strength multiplier: bound is k*R")
    p.add_argument("--workers", type=number(int), default=1,
                   help="worker processes (the report is byte-identical "
                        "for every value)")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="write the full campaign report as JSON")


def run_search(args, verb: str, per: str, run, params_cls, **own):
    """Params (search flags + the verb's ``own`` fields), the campaign
    on the flags' deployment — its ``meta`` naming that deployment — and
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
    named = deployment(args)
    report, stats = run(named.build_workload(), named.build_topology(),
                        named.config(cache=cache_dir(args)), params=params,
                        meta=named.to_meta())
    resolved = report["params"]
    print(f"repro {verb}: {args.workload} on {args.topology}, f={args.f}, "
          f"R={resolved['R_us']}us, k={resolved['k']}, "
          f"{resolved['n_periods']} periods/{per}")

    def wall(rate: float) -> str:
        return (f"({stats.wall_s:.2f}s wall, {rate:.1f} {per}s/s, "
                f"workers={stats.workers}"
                + (", pool fallback" if stats.pool_fallback else "") + ")")

    return report, stats, wall


def print_counterexample(artifact: dict, size: str) -> None:
    from ..mc import Cell

    confirmed = ("replay-confirmed" if artifact["replay_confirmed"]
                 else "NOT replay-confirmed")
    print(f"  counterexample ({Cell.from_dict(artifact['cell']).label()}, "
          f"{size}, {confirmed}):")
    for violation in artifact["violations"]:
        print(f"    [{violation['invariant']}] {violation['detail']}")

"""What every deployment verb shares: the flags that name a
:class:`~repro.deployment.Deployment`, and the system they plan."""

from __future__ import annotations

import argparse
import math

from ..core.runtime.system import BTRSystem
from ..deployment import Deployment
from ..persist import json_text, write_atomic
from ..sim import seconds, to_seconds
from ..workload import WORKLOADS


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


def add_deployment_flags(p: argparse.ArgumentParser) -> None:
    """The six flags naming a deployment."""
    p.set_defaults(error=p.error)  # for deployment()
    default = Deployment()
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   default=default.workload)
    p.add_argument("--topology", default=default.topology,
                   help="e.g. fullmesh:7, ring:6, mesh:3x3, geo:3x8")
    p.add_argument("--bandwidth", type=float, default=default.bandwidth,
                   help="raw link bandwidth in bit/s")
    p.add_argument("--f", type=int, default=default.f, dest="f",
                   help="fault budget")
    p.add_argument("--seed", type=int, default=default.seed)
    p.add_argument("--stretch", type=number(int), default=default.stretch,
                   metavar="K",
                   help="run the workload at Kx slower periods and "
                        "deadlines (geo deployments: WAN latency must fit "
                        "inside control deadlines)")


def deployment(args) -> Deployment:
    """The deployment the flags name. A bad value fails through the
    verb's parser: one line naming it, exit 2."""
    try:
        return Deployment(args.workload, args.topology, args.bandwidth,
                          args.f, args.seed, args.stretch)
    except ValueError as exc:
        args.error(str(exc))


#: ``--fault-at``'s time, in seconds, when the flag is not given.
FAULT_AT_S = 0.22


def fault_time(args) -> int:
    """``--fault-at`` (default :data:`FAULT_AT_S`) in µs. A time at or
    after the run's end — ``--periods`` periods of the deployment's
    (stretched) workload — would inject nothing, so it fails through the
    verb's parser: one line naming the run's end, exit 2."""
    fault_at = FAULT_AT_S if args.fault_at is None else args.fault_at
    at = seconds(fault_at)
    end = args.periods * deployment(args).build_workload().period
    if at >= end:
        args.error(f"--fault-at {fault_at:g}s is not before the "
                   f"run's end at {to_seconds(end):g}s "
                   f"({args.periods} periods)")
    return at


def planned(args, **how) -> BTRSystem:
    """The flags' deployment, planned; ``how`` adds the verb's own run
    settings (``trace_mode``)."""
    system = deployment(args).system(**how)
    system.prepare()
    return system


def write_json(path: str, payload, what: str) -> None:
    write_atomic(path, json_text(payload))
    print(f"{what} written to {path}")

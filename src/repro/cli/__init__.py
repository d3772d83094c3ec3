"""Command-line interface: ``python -m repro <command>``.

One module per verb, each owning its flags, its help text and its
handler: ``plan``, ``run``, ``compare``, ``verify``, ``bounds``,
``trace``, ``check``, ``fuzz`` (``campaign`` / ``corpus-check``) and
``replay``. Every verb that names a deployment does so with the six
flags of :class:`~repro.deployment.Deployment` (:mod:`.flags`);
``check`` and ``fuzz campaign`` share their search flags
(:mod:`.search`). Each verb accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..core.planner import PlanningError
from ..net import TopologyError
from . import (bounds, check, compare, fuzz, plan, replay, run, trace,
               verify)

#: The verbs, in ``--help`` order.
VERBS = (plan, run, compare, verify, bounds, trace, check, fuzz, replay)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bounded-time recovery (BTR) for cyber-physical "
                    "systems — HotOS XV reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        verb.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PlanningError as exc:
        print(f"repro {args.command}: unschedulable deployment: {exc}",
              file=sys.stderr)
        return 1
    except TopologyError as exc:  # a well-formed spec its builder refuses
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


__all__ = ["VERBS", "build_parser", "main"]

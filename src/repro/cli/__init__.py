"""Command-line interface: ``python -m repro <command>``.

One module per verb, each owning its flags, its help text and its
handler: ``plan``, ``run``, ``compare``, ``verify``, ``bounds``,
``trace``, ``check``, ``fuzz`` (``campaign`` / ``corpus-check``) and
``replay``. Every verb that names a deployment does so with the six
flags of :class:`~repro.deployment.Deployment` (:mod:`.flags`);
``check`` and ``fuzz campaign`` share their search flags
(:mod:`.search`). Each verb accepts only the flags it reads.

Exit codes (README, "Command line"): 0 and 1 are a verb's verdict. A
handler raises; only :func:`main` turns input it cannot use — an
:class:`~repro.persist.InputError`, an unschedulable deployment or an
``OSError`` — into one line and exit 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..core.planner import PlanningError
from ..persist import InputError
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
        message = f"unschedulable deployment: {exc}"
    except (InputError, OSError) as exc:
        message = str(exc)
    print(f"repro {args.command}: {message}", file=sys.stderr)
    return 2


__all__ = ["VERBS", "build_parser", "main"]

"""``repro replay``: re-manifest one saved counterexample — a ``check``
artifact or a ``fuzz`` corpus entry — through the normal run path, on
the deployment its ``meta`` pins (the flags fill absent keys). Exits 1
when the violation reproduces, 0 when it does not, 2 on an artifact it
cannot replay."""

from __future__ import annotations

import json
import sys

from ..deployment import Deployment
from .flags import add_deployment_flags, deployment


def register(sub) -> None:
    p = sub.add_parser(
        "replay", help="re-manifest one saved counterexample (a check "
                       "artifact or a fuzz corpus entry)")
    add_deployment_flags(p)
    p.add_argument("artifact", metavar="FILE",
                   help="a counterexample artifact JSON")
    p.set_defaults(handler=handle)


def handle(args) -> int:
    from ..mc import replay_counterexample
    from ..mc.counterexample import counterexample_from_dict

    try:
        with open(args.artifact) as f:
            payload = json.load(f)
        cell, deliveries = counterexample_from_dict(payload)
        system = Deployment.from_meta(payload.get("meta"),
                                      deployment(args)).system()
        system.prepare()
        violations, result = replay_counterexample(system, payload)
    except (OSError, ValueError) as exc:
        print(f"repro replay: cannot replay artifact: {exc}",
              file=sys.stderr)
        return 2
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

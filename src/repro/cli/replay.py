"""``repro replay``: re-manifest one saved counterexample — a ``check``
artifact or a ``fuzz`` corpus entry — through the normal run path, on
the deployment its ``meta`` pins (the flags fill absent keys). Exits 1
when the violation reproduces, 0 when it does not, 2 on an artifact it
cannot replay."""

from __future__ import annotations

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
    from ..mc import Cell, read_counterexample, replay_counterexample

    payload = read_counterexample(args.artifact)
    system = Deployment.from_meta(payload.get("meta"),
                                  deployment(args)).system()
    system.prepare()
    violations, result = replay_counterexample(system, payload)
    print(f"replaying {Cell.from_dict(payload['cell']).label()} with "
          f"{len(payload['deliveries'])} delivery perturbation(s) over "
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

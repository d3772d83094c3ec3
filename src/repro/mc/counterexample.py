"""Replayable counterexample artifacts.

A counterexample is a plain-JSON payload holding everything needed to
re-manifest a violation through the normal run path: the adversary cell,
its serialised :class:`~repro.faults.adversary.FaultScript`, the
minimised delivery schedule, and the run shape (periods, ``R``, ``k``,
seed). :func:`replay_counterexample` rebuilds the script **from the
serialised payload** (not from in-memory objects) and re-executes it via
``BTRSystem.run`` — the same path ``repro run`` takes — so a confirmed
artifact is proof the violation exists outside the checker.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..deployment import Deployment, _require_int
from ..faults.adversary import FaultScript, script_from_dict, script_to_dict
from .choices import Cell, DeliveryChoice, validate_schedule
from .explorer import state_fingerprint
from .invariants import Violation
from .judge import NOT_DETERMINISTIC, judge

#: Bumped when the artifact layout changes incompatibly.
CEX_VERSION = 1

_REQUIRED_KEYS = ("version", "cell", "fault_script", "deliveries",
                  "n_periods", "R_us", "k", "seed", "violations")


def counterexample_to_dict(cell: Cell,
                           deliveries: Tuple[DeliveryChoice, ...],
                           violations: List[Violation],
                           *, script: FaultScript, n_periods: int,
                           R_us: int, k: int, seed: int,
                           meta: Optional[dict] = None,
                           replay_confirmed: Optional[bool] = None
                           ) -> dict:
    """Serialise one minimised violating path as a portable artifact."""
    return {
        "version": CEX_VERSION,
        "meta": dict(meta or {}),
        "cell": cell.to_dict(),
        "fault_script": script_to_dict(script),
        "deliveries": [list(choice) for choice in deliveries],
        "n_periods": n_periods,
        "R_us": R_us,
        "k": k,
        "seed": seed,
        "violations": [v.to_dict() for v in violations],
        "replay_confirmed": replay_confirmed,
    }


def counterexample_from_dict(payload: dict
                             ) -> Tuple[Cell,
                                        Tuple[DeliveryChoice, ...]]:
    """Validate an artifact and decode its structured parts.

    Raises ``ValueError`` on anything malformed — the cell, the delivery
    schedule, the fault script, the run-shape integers, the recorded
    violations, and the deployment names in ``meta`` — so callers
    loading artifacts from disk get a diagnosis rather than a traceback
    deep in the replay.
    """
    if not isinstance(payload, dict):
        raise ValueError("counterexample artifact must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(
            f"counterexample artifact missing keys: {', '.join(missing)}")
    if payload["version"] != CEX_VERSION:
        raise ValueError(
            f"unsupported counterexample version {payload['version']!r} "
            f"(this build reads version {CEX_VERSION})")
    for key in ("n_periods", "R_us", "k"):
        _require_int(key, payload[key], least=1)
    _require_int("seed", payload["seed"])
    cell = Cell.from_dict(payload["cell"])
    raw = payload["deliveries"]
    if not (isinstance(raw, list) and all(
            isinstance(choice, list) and len(choice) == 2
            and all(type(v) is int for v in choice) for choice in raw)):
        raise ValueError(f"deliveries must be a list of [index, delay] "
                         f"integer pairs, got {raw!r}")
    deliveries = tuple((index, delay) for index, delay in raw)
    validate_schedule(deliveries)
    script_from_dict(payload["fault_script"], seed=payload["seed"])
    violations = payload["violations"]
    if not (isinstance(violations, list) and all(
            isinstance(v, dict) and isinstance(v.get("invariant"), str)
            for v in violations)):
        raise ValueError(f"malformed violations {violations!r}")
    Deployment.from_meta(payload.get("meta"))
    return cell, deliveries


def replay_counterexample(system, payload: dict
                          ) -> Tuple[List[Violation], object]:
    """Re-execute an artifact through the normal run path.

    The fault script is rebuilt from its *serialised* form and the
    delivery schedule re-applied via the engine's delivery hook; the
    returned violations come from the same per-path invariants the
    exploration used. ``system`` must be prepared on the artifact's
    workload/topology/config — any trace mode works, since the
    invariants only read milestone events.
    """
    _, deliveries = counterexample_from_dict(payload)
    script = script_from_dict(payload["fault_script"],
                              seed=payload["seed"])
    result, violations, _ = judge(
        system, script, deliveries, n_periods=payload["n_periods"],
        R_us=payload["R_us"], k=payload["k"])
    return violations, result


def confirm_replay(system, payload: dict) -> None:
    """Replay a campaign's freshly minimised artifact, mark it
    ``replay_confirmed`` and stamp its ``replay_digest`` — the replayed
    path's primitives-only fingerprint, which corpus checks compare
    across processes and commits.

    The search judged this very input violating a moment ago — the
    minimiser took the known verdict instead of re-running it — so a
    replay that no longer violates means the simulator is not
    deterministic, and raises ``AssertionError``.
    """
    violations, result = replay_counterexample(system, payload)
    if not violations:
        raise AssertionError(NOT_DETERMINISTIC)
    payload["replay_confirmed"] = True
    payload["replay_digest"] = state_fingerprint(result)

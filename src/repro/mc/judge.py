"""Run one path and judge it — the search loop's one call site.

Every search in the tree (the model checker's BFS, the fuzzer's
evaluator, both minimisers, every replay) asks the same question of the
same machine: *run this fault script under this delivery schedule, then
check the per-path invariants*. :func:`judge` is the only function in
``mc/`` and ``fuzz/`` that does it, so a simulator that can snapshot and
restore (ROADMAP, "checkpoint-and-fork") has exactly one place to fork
from. :func:`first_violating_prefix` is the one shrinking loop on top.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from .choices import DeliveryChoice
from .hooks import DeliveryPerturbation, ObservedDelivery
from .invariants import Violation, check_path


def judge(system, script, deliveries: Tuple[DeliveryChoice, ...] = (),
          *, n_periods: int, R_us: int, k: int, record: bool = False
          ) -> Tuple[object, List[Violation], List[ObservedDelivery]]:
    """One path through the normal run path (``BTRSystem.run``, the one
    ``repro run`` takes): ``(result, violations, observed deliveries)``.

    ``script`` is single-use (fault behaviours carry RNG state): build a
    fresh one per call. ``observed`` is filled only under ``record``.
    """
    hook = (DeliveryPerturbation(deliveries, record=record)
            if deliveries or record else None)
    result = system.run(n_periods=n_periods, adversary=script,
                        delivery_hook=hook)
    violations = check_path(result, system.strategy, R_us, k=k)
    return result, violations, hook.observed if hook else []


def first_violating_prefix(items: Sequence,
                           violations_of: Callable[[Sequence], list],
                           shortest: int = 0) -> Tuple[Sequence, list]:
    """The shortest prefix of ``items`` (at least ``shortest`` long) that
    still violates, with its violations.

    ``items`` violates as a whole by assumption — it was just seen to —
    so the scan always ends by returning; at most
    ``len(items) - shortest + 1`` re-runs.
    """
    for cut in range(shortest, len(items) + 1):
        violations = violations_of(items[:cut])
        if violations:
            return items[:cut], violations
    raise AssertionError(
        "path no longer violates on re-run — the simulator is not "
        "deterministic, which voids every result of this campaign"
    )

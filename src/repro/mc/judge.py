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

from typing import Callable, List, Optional, Sequence, Tuple

from .choices import DeliveryChoice
from .hooks import DeliveryPerturbation, ObservedDelivery
from .invariants import Violation, check_path


def judge(system, script, deliveries: Tuple[DeliveryChoice, ...] = (),
          *, n_periods: int, R_us: int, k: int,
          window: Optional[Tuple[int, int]] = None
          ) -> Tuple[object, List[Violation], List[ObservedDelivery]]:
    """One path through the normal run path (``BTRSystem.run``, the one
    ``repro run`` takes): ``(result, violations, observed deliveries)``.

    ``script`` is single-use (fault behaviours carry RNG state): build a
    fresh one per call. ``observed`` holds the delivery points whose
    base arrival lies in ``window`` (``[lo, hi)``), none without one.
    """
    hook = (DeliveryPerturbation(deliveries, window)
            if deliveries or window else None)
    result = system.run(n_periods=n_periods, adversary=script,
                        delivery_hook=hook)
    violations = check_path(result, system.strategy, R_us, k=k)
    return result, violations, hook.observed if hook else []


#: Why a search stops when a violating path does not violate again.
NOT_DETERMINISTIC = (
    "path no longer violates on re-run — the simulator is not "
    "deterministic, which voids every result of this campaign")


def first_violating_prefix(items: Sequence,
                           violations_of: Callable[[Sequence], list],
                           shortest: int = 0,
                           known: Optional[list] = None
                           ) -> Tuple[Sequence, list]:
    """The shortest prefix of ``items`` (at least ``shortest`` long) that
    still violates, with its violations.

    ``known`` is the verdict the caller already holds for the whole of
    ``items`` (the search just judged it): the last cut returns it
    without a run, so at most ``len(items) - shortest`` re-runs. Without
    it the whole is re-run too, and must violate.
    """
    for cut in range(shortest, len(items) + 1):
        if cut == len(items) and known is not None:
            violations = known
        else:
            violations = violations_of(items[:cut])
        if violations:
            return items[:cut], violations
    raise AssertionError(NOT_DETERMINISTIC)

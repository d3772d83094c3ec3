"""Fitness and coverage signals: what makes a mutant worth keeping.

Two survival routes, mirroring coverage-guided fuzzers:

* **Fitness** — how adversarial the run was, as a tuple of integers
  derived from :func:`repro.obs.reconstruct_timelines`: worst per-fault
  recovery, fleet-total recovery, worst single phase span, and the
  distance to the ``kR`` bound. Integers only, compared
  lexicographically, so ranking is exact and deterministic.

* **Coverage** — a set of string keys over (mode-id transitions ×
  trace-kind milestones × invariant verdicts × injection placement). A
  mutant that exercises a never-seen key survives even when fitness
  stalls, which is what lets the search escape local plateaus.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from ..sim.trace import ModeSwitchCompleted


def fitness_vector(timelines, R_us: int, k: int = 1) -> Tuple[int, ...]:
    """Score one run's timelines; larger is more adversarial.

    The tuple is ``(max_recovery_us, total_recovery_us, worst_phase_us,
    bound_gap_us)``, compared in that order. ``bound_gap_us`` is
    ``max_recovery - kR``: positive exactly when the Definition 3.1
    bound broke, and otherwise "how close did we get" — the gradient
    the search climbs toward a violation.
    """
    totals = [t.total_us for t in timelines]
    max_recovery = max(totals, default=0)
    worst_phase = max(
        (span for t in timelines for span in sorted(t.phases.values())),
        default=0)
    return (max_recovery, sum(totals), worst_phase,
            max_recovery - k * R_us)


def coverage_keys(result, timelines, payload: dict,
                  period_us: int) -> FrozenSet[str]:
    """The coverage map's keys for one evaluated candidate.

    Keys are plain strings built from trace facts only (never wall-clock
    or worker identity), so the same candidate covers the same keys in
    any process.
    """
    keys = set()
    # Mode-id transitions, per node, in trace order.
    prev = {}
    for event in result.trace.of_kind(ModeSwitchCompleted):
        keys.add(f"switch:{prev.get(event.node, 'init')}->{event.mode}")
        prev[event.node] = event.mode
    # Milestones observed and phases exercised, per fault kind.
    for t in timelines:
        for name, value in sorted(t.milestones.items()):
            if value is not None:
                keys.add(f"milestone:{t.fault_kind}:{name}")
        for phase, span in sorted(t.phases.items()):
            if span > 0:
                keys.add(f"phase:{t.fault_kind}:{phase}")
    # Injection placement: kind × period index.
    for entry in payload["injections"]:
        keys.add(f"inject:{entry['kind']}:p{entry['time'] // period_us}")
    return frozenset(keys)


def verdict_keys(violations) -> FrozenSet[str]:
    """Coverage keys for the invariants a run broke (dicts or objects)."""
    keys = set()
    for v in violations:
        invariant = v["invariant"] if isinstance(v, dict) else v.invariant
        keys.add(f"verdict:{invariant}")
    return frozenset(keys)


def rank_key(record: dict) -> Tuple[List[int], str]:
    """Deterministic descending-fitness sort key for evaluated records
    (negated fitness, then canonical genome as tie-break)."""
    return ([-v for v in record["fitness"]], record["key"])

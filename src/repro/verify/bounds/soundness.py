"""Soundness cross-validation: static bounds vs. empirical timelines.

The analyzer's claim is *dominance*: for every fault the simulator can
actually produce, each empirical phase span (and the end-to-end
recovery) must sit at or below the static bound for the fault's class.
This module is the bridge the benchmark suite, the corpus-replay tests
and the CI smoke job use to check that claim against
:func:`repro.obs.recovery.reconstruct_timelines` output — and to record
*tightness* (bound / worst empirical recovery), because a sound bound
that is 10× loose certifies nothing interesting.

Two timeline populations are deliberately excluded from dominance:

* timelines with an empirical total of zero — the fault never disrupted
  an output, so there is no recovery to bound;
* timelines of victims the report marks *unachievable* — the analyzer
  explicitly declined to bound them (conviction is statically
  unreachable) and surfaced a ``bound.unachievable`` finding instead;
  holding a bound it refused to make against them would be circular.
  They are counted separately so the harness can assert the analyzer
  predicted every empirical non-recovery.

Tightness ratios are the one place this package leaves integer
microseconds; the ratio site carries a lint pragma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ...obs.recovery import PHASES, FaultTimeline
from .model import BoundsReport, class_of_kind


@dataclass(frozen=True)
class SoundnessViolation:
    """One empirical phase span that escaped its static bound."""

    fault_kind: str
    node: str
    phase: str           # a phase name, or "total"
    empirical_us: int
    bound_us: int

    def __str__(self) -> str:
        return (f"{self.fault_kind}@{self.node}: empirical {self.phase} "
                f"{self.empirical_us}us exceeds static bound "
                f"{self.bound_us}us")


@dataclass
class SoundnessCheck:
    """Outcome of checking one batch of timelines against one report."""

    checked: int = 0
    #: Timelines skipped because their victim is statically marked
    #: unachievable (the analyzer's finding, not a bound, covers them).
    skipped_unachievable: int = 0
    violations: List[SoundnessViolation] = field(default_factory=list)
    #: Per fault kind: the dominating bound total and the *worst*
    #: (largest) empirical recovery total observed, integer µs.
    bound_total: Dict[str, int] = field(default_factory=dict)
    worst_empirical: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def tightness(self) -> Dict[str, float]:
        """Per fault kind: bound total over the worst empirical total —
        how much the static bound overshoots the worst recovery the
        suite actually produced (1.0 would be exact)."""
        return {
            kind: self.bound_total[kind] / empirical  # lint: ignore[float-time-arithmetic]
            for kind, empirical in self.worst_empirical.items()
            if empirical > 0 and kind in self.bound_total
        }

    @property
    def class_tightness(self) -> Dict[str, float]:
        """Per fault *class*: the class bound over the worst empirical
        recovery across every kind the class covers. This is the ratio
        the benchmark gates on — the class is the analyzer's unit of
        output, and each of its kinds is one empirical projection of
        the same bound (e.g. ``omission`` is ``timing`` with an
        infinite delay), so the class's envelope is measured against
        the worst of all of them."""
        bound: Dict[str, int] = {}
        worst: Dict[str, int] = {}
        for kind, total in self.worst_empirical.items():
            fault_class = class_of_kind(kind)
            if fault_class is None or kind not in self.bound_total:
                continue
            bound[fault_class] = max(bound.get(fault_class, 0),
                                     self.bound_total[kind])
            worst[fault_class] = max(worst.get(fault_class, 0), total)
        return {
            fault_class: bound[fault_class] / empirical  # lint: ignore[float-time-arithmetic]
            for fault_class, empirical in worst.items()
            if empirical > 0
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "checked": self.checked,
            "skipped_unachievable": self.skipped_unachievable,
            "sound": self.ok,
            "violations": [str(v) for v in self.violations],
            "tightness": {k: round(v, 4)
                          for k, v in sorted(self.tightness.items())},
            "class_tightness": {
                k: round(v, 4)
                for k, v in sorted(self.class_tightness.items())},
        }


def check_timelines(report: BoundsReport,
                    timelines: Iterable[FaultTimeline],
                    check: Optional[SoundnessCheck] = None
                    ) -> SoundnessCheck:
    """Assert dominance of ``report`` over every timeline.

    Each timeline is compared against the dominating entry for its fault
    kind (the phase-wise maximum across modes — the reconstruction does
    not record which mode the fault hit, so the analyzer must cover all
    of them).
    """
    check = check or SoundnessCheck()
    for timeline in timelines:
        bound = report.worst_for_kind(timeline.fault_kind)
        if bound is None:
            continue
        if timeline.node in bound.unachievable:
            check.skipped_unachievable += 1
            continue
        check.checked += 1
        for phase in PHASES:
            empirical = timeline.phases.get(phase, 0)
            if empirical > bound.phases.get(phase, 0):
                check.violations.append(SoundnessViolation(
                    timeline.fault_kind, timeline.node, phase,
                    empirical, bound.phases.get(phase, 0)))
        if timeline.total_us > bound.total_us:
            check.violations.append(SoundnessViolation(
                timeline.fault_kind, timeline.node, "total",
                timeline.total_us, bound.total_us))
        if timeline.total_us > 0:
            kind = timeline.fault_kind
            check.bound_total[kind] = max(
                check.bound_total.get(kind, 0), bound.total_us)
            check.worst_empirical[kind] = max(
                check.worst_empirical.get(kind, 0), timeline.total_us)
    return check


__all__ = ["SoundnessViolation", "SoundnessCheck", "check_timelines"]

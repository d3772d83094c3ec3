"""Data model of the static recovery-bound analyzer (Layer 4).

A :class:`ClassBound` is the analyzer's unit of output: for one mode and
one fault *class* (silence / forgery / timing), the worst-case time a
recovery may spend in each phase of the taxonomy
:mod:`repro.obs.recovery` measures empirically (detect, convict, quorum,
switch, settle, residual). The phase spans are worst-cased over every
victim the mode can lose, so a single entry dominates every concrete
fault of its class in its mode. A :class:`BoundsReport` aggregates the
entries of one deployment together with the budget the deployment
promised, and is what ``repro bounds`` renders and exports.

Everything in this package computes in **integer microseconds** — the
same discipline the simulator and timeline code follow (enforced by the
``float-time-arithmetic`` lint rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ...analysis.reporting import format_table
from ...obs.recovery import PHASES

#: The analyzer's fault classes, and which concrete behaviour kinds each
#: one covers. *silence* faults withhold traffic and are convicted by
#: blame accumulation; *forgery* faults emit provably wrong traffic and
#: self-incriminate within a period; *timing* faults may do either, so
#: their bound is the phase-wise worst of both regimes.
FAULT_CLASSES: Tuple[str, ...] = ("silence", "forgery", "timing")

#: Concrete fault kind -> analyzer class. ``evidence_flood`` is
#: deliberately absent: it attacks the control plane itself, so its
#: recovery is governed by the verification quotas and lane shares, not
#: by the plan artifacts this analyzer reads — it is out of the
#: analyzer's scope (a documented limitation, see
#: docs/STATIC_ANALYSIS.md), not silently bounded wrong.
CLASS_OF_KIND: Dict[str, str] = {
    "crash": "silence",
    "omission": "silence",
    "commission": "forgery",
    "equivocation": "forgery",
    "timing": "timing",
    "rogue_clock": "timing",
}


def class_of_kind(kind: str) -> Optional[str]:
    """The analyzer class covering a concrete fault kind (None if the
    kind is outside the analyzed taxonomy)."""
    return CLASS_OF_KIND.get(kind)


@dataclass(frozen=True)
class ClassBound:
    """Worst-case phase decomposition for one (mode, fault class)."""

    mode: str
    fault_class: str
    #: The victim whose bound is the per-phase worst case shown (ties
    #: broken by node id; phases are element-wise maxima over victims,
    #: so the entry dominates *every* victim, not just this one).
    worst_victim: str
    #: Phase name -> worst-case span, integer µs (keys = obs PHASES).
    phases: Mapping[str, int]
    #: Victims whose conviction is statically unreachable (declaration
    #: structure cannot attribute the fault), with the reason.
    unachievable: Mapping[str, str] = field(default_factory=dict)
    #: Per-victim worst-case totals (each victim's own phase sum, not
    #: the element-wise maximum) — the model checker's cell-ordering
    #: signal reads these to explore tight-margin cells first.
    victim_totals: Mapping[str, int] = field(default_factory=dict)

    @property
    def total_us(self) -> int:
        return sum(self.phases.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "fault_class": self.fault_class,
            "worst_victim": self.worst_victim,
            "phases": dict(self.phases),
            "total_us": self.total_us,
            "unachievable": dict(self.unachievable),
            "victim_totals": dict(self.victim_totals),
        }


@dataclass(frozen=True)
class BoundsReport:
    """Every class bound of one prepared deployment."""

    period_us: int
    f: int
    #: The recovery bound the deployment promises: ``config.R_us`` when
    #: the operator pinned one, else the computed budget total.
    R_us: int
    #: The :class:`~repro.core.runtime.budget.RecoveryBudget` components.
    budget: Mapping[str, int]
    entries: Tuple[ClassBound, ...]

    def for_mode(self, mode: str) -> List[ClassBound]:
        return [e for e in self.entries if e.mode == mode]

    def for_class(self, fault_class: str) -> List[ClassBound]:
        return [e for e in self.entries if e.fault_class == fault_class]

    def worst_for_class(self, fault_class: str) -> Optional[ClassBound]:
        """The phase-wise *element maximum* over every mode's entry for
        one class, so the result dominates the class in any mode."""
        entries = self.for_class(fault_class)
        if not entries:
            return None
        phases = {p: max(e.phases.get(p, 0) for e in entries)
                  for p in PHASES}
        worst = max(entries, key=lambda e: (e.total_us, e.mode))
        merged: Dict[str, str] = {}
        victim_totals: Dict[str, int] = {}
        for e in entries:
            merged.update(e.unachievable)
            for victim, total in e.victim_totals.items():
                victim_totals[victim] = max(
                    victim_totals.get(victim, 0), total)
        return ClassBound(mode="*", fault_class=fault_class,
                          worst_victim=worst.worst_victim,
                          phases=phases, unachievable=merged,
                          victim_totals=victim_totals)

    def worst_for_kind(self, kind: str) -> Optional[ClassBound]:
        """The dominating entry for a concrete fault kind, or None for
        kinds outside the analyzed taxonomy (e.g. ``evidence_flood``) —
        the analyzer makes no claim about those, so callers must not
        hold a bound against them."""
        fault_class = class_of_kind(kind)
        if fault_class is None:
            return None
        return self.worst_for_class(fault_class)

    def exceeding(self, R_us: Optional[int] = None) -> List[ClassBound]:
        """Entries whose total bound exceeds the promised R."""
        bound = self.R_us if R_us is None else R_us
        return [e for e in self.entries if e.total_us > bound]

    def to_dict(self) -> Dict[str, object]:
        return {
            "period_us": self.period_us,
            "f": self.f,
            "R_us": self.R_us,
            "budget": dict(self.budget),
            "entries": [e.to_dict() for e in self.entries],
        }

    def render(self, title: str = "Static recovery bounds") -> str:
        rows = []
        for e in sorted(self.entries,
                        key=lambda e: (e.mode, e.fault_class)):
            # The headroom column is display-only; the bound itself
            # stays in integer µs.
            pct = 100 * e.total_us // max(self.R_us, 1)
            rows.append([
                e.mode, e.fault_class, e.worst_victim,
                *[str(e.phases.get(p, 0)) for p in PHASES],
                str(e.total_us), f"{pct}%",
            ])
        table = format_table(
            title,
            ["mode", "class", "worst victim", *PHASES, "total µs",
             "of R"],
            rows,
        )
        over = self.exceeding()
        verdict = (f"{len(over)} bound(s) EXCEED R={self.R_us}us"
                   if over else f"all bounds within R={self.R_us}us")
        return table + verdict


__all__ = ["FAULT_CLASSES", "CLASS_OF_KIND", "class_of_kind",
           "ClassBound", "BoundsReport"]

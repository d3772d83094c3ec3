"""Recovery-timeline reconstruction: where inside R the time goes.

The paper's contract (Definition 3.1) is a *time budget*: after a fault
manifests, outputs may be arbitrary for at most R, then must be timely and
correct again. A single end-to-end recovery number says whether the budget
held but not *where the time went*. This module stitches, per injected
fault, the phase milestones out of the run's :class:`~repro.sim.trace.Trace`:

``manifest``
    the fault injection time;
``first_charge``
    the first correct-node suspicion — a path declaration naming the
    accused, or conviction-grade evidence generated against it;
``conviction``
    the first node accepting validated evidence against the accused;
``quorum``
    the moment the *last* correct node (that ever accepts) holds the
    evidence — the distribution phase is over fleet-wide;
``switch_boundary``
    the deterministic mode-switch boundary computed from the evidence;
``first_correct_output``
    the first provably correct sink output at/after the boundary;
``recovered``
    ``manifest`` plus the fault's recovery, which its Definition 3.1
    window owns (:func:`repro.analysis.correctness.fault_windows`).

From the milestones we derive six consecutive **phase spans** (detect,
convict, quorum, switch, settle, residual) clamped to the recovery window
so that, by construction, *the spans always sum exactly to the end-to-end
recovery time* — the invariant the experiment harness and CI assert. The
raw (unclamped) milestones are kept alongside, because a milestone landing
*after* the recovery end (e.g. quorum completing after outputs were
already clean) is itself informative.

Everything here is a pure function of the trace — nothing peeks at
simulator internals, matching the analysis layer's contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.trace import (
    EvidenceAccepted,
    EvidenceGenerated,
    ModeSwitchCompleted,
    ModeSwitchStarted,
    OutputProduced,
    PathDeclared,
)

#: Phase names, in timeline order.
PHASES: Tuple[str, ...] = (
    "detect", "convict", "quorum", "switch", "settle", "residual",
)

#: Milestone names, in timeline order (phase i ends at milestone i+1).
MILESTONES: Tuple[str, ...] = (
    "first_charge", "conviction", "quorum", "switch_boundary",
    "first_correct_output",
)


@dataclass(frozen=True)
class FaultTimeline:
    """The reconstructed recovery timeline of one injected fault."""

    node: str
    fault_kind: str
    manifest_us: int
    #: Raw milestone times (absolute µs), ``None`` when never observed.
    milestones: Dict[str, Optional[int]]
    #: Clamped consecutive phase spans (µs); sums to ``total_us`` exactly.
    phases: Dict[str, int]
    #: The fault window's recovery (µs; 0 = no disruption).
    total_us: int

    def phase_sum(self) -> int:
        return sum(self.phases.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "node": self.node,
            "fault_kind": self.fault_kind,
            "manifest_us": self.manifest_us,
            "milestones": dict(self.milestones),
            "phases": dict(self.phases),
            "total_us": self.total_us,
        }


def _first_correct_output(result, t_from: int, t_end: Optional[int]
                          ) -> Optional[int]:
    """Time of the first sink output at/after ``t_from`` whose value
    matches the reference oracle (delivery before ``t_end`` if given)."""
    # Imported lazily: the analysis layer imports the runtime, and the
    # runtime imports obs.metrics — a module-level import here would cycle.
    from ..analysis.oracle import ReferenceOracle

    oracle = ReferenceOracle(result.workload)
    for event in result.trace.of_kind(OutputProduced):
        if event.time < t_from:
            continue
        if t_end is not None and event.time >= t_end:
            break
        if event.value == oracle.sink_value(event.flow, event.period_index):
            return event.time
    return None


def reconstruct_timelines(result) -> List[FaultTimeline]:
    """Per-fault recovery timelines for one run, in manifestation order.

    ``result`` is a :class:`~repro.core.runtime.system.RunResult` (typed
    loosely to keep this module import-light). Each fault reads events in
    its window (:func:`repro.analysis.correctness.fault_windows`), so
    overlapping recoveries attribute their events to the fault that
    triggered them. Every kind read here is in
    :data:`repro.sim.trace.MILESTONE_KINDS`, so both modes support it.
    """
    from ..analysis.correctness import fault_windows

    declared = result.trace.of_kind(PathDeclared)
    generated = result.trace.of_kind(EvidenceGenerated)
    accepted = result.trace.of_kind(EvidenceAccepted)
    started = result.trace.of_kind(ModeSwitchStarted)
    completed = result.trace.of_kind(ModeSwitchCompleted)

    timelines: List[FaultTimeline] = []
    for window in fault_windows(result):
        fault = window.fault
        t0 = fault.time
        in_window = window.contains
        accused = fault.node

        charge_times = [e.time for e in declared
                        if in_window(e.time) and accused in e.path
                        and e.declarer != accused]
        charge_times += [e.time for e in generated
                         if in_window(e.time) and e.accused_node == accused]
        first_charge = min(charge_times) if charge_times else None

        # Conviction: the first node accepts; quorum: every correct node
        # that ever accepts has accepted.
        first_accept: Dict[str, int] = {}
        for e in accepted:
            if in_window(e.time) and e.accused_node == accused:
                first_accept.setdefault(e.node, e.time)
        conviction = min(first_accept.values(), default=None)
        quorum = max(first_accept.values(), default=None)

        boundaries = [e.boundary for e in started
                      if in_window(e.time) and e.boundary >= 0]
        if boundaries:
            switch_boundary: Optional[int] = min(boundaries)
        else:
            switch_times = [e.time for e in completed if in_window(e.time)]
            switch_boundary = min(switch_times) if switch_times else None

        first_correct = _first_correct_output(
            result, switch_boundary, window.end
        ) if switch_boundary is not None else None

        total = window.recovery_us
        milestones: Dict[str, Optional[int]] = {
            "first_charge": first_charge,
            "conviction": conviction,
            "quorum": quorum,
            "switch_boundary": switch_boundary,
            "first_correct_output": first_correct,
        }

        # Clamp milestones into [t0, recovered] and make them monotone so
        # consecutive spans are non-negative and sum to the total exactly.
        recovered = t0 + total
        spans: Dict[str, int] = {}
        prev = t0
        for phase, name in zip(PHASES, MILESTONES):
            raw = milestones[name]
            clamped = prev if raw is None else min(max(raw, prev), recovered)
            spans[phase] = clamped - prev
            prev = clamped
        spans["residual"] = recovered - prev

        timelines.append(FaultTimeline(
            node=accused,
            fault_kind=fault.fault_kind,
            manifest_us=t0,
            milestones=milestones,
            phases=spans,
            total_us=total,
        ))
    return timelines


#: Which budget component each phase draws down (for attribution tables).
PHASE_BUDGET_COMPONENT: Dict[str, str] = {
    "detect": "detection_us",
    "convict": "distribution_us",
    "quorum": "distribution_us",
    "switch": "switch_us",
    "settle": "settling_us",
    "residual": "settling_us",
}


def budget_attribution(timeline: FaultTimeline, budget
                       ) -> List[Tuple[str, int, str, int]]:
    """Rows of (phase, span_us, budget component, component_us).

    ``budget`` is a :class:`~repro.core.runtime.budget.RecoveryBudget`
    (or any object with the four ``*_us`` attributes); pass the budget the
    deployment promised to see what fraction of each worst-case component
    the observed recovery actually consumed.
    """
    rows = []
    for phase in PHASES:
        component = PHASE_BUDGET_COMPONENT[phase]
        rows.append((phase, timeline.phases[phase], component,
                     int(getattr(budget, component))))
    return rows

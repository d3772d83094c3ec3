"""Incident timelines: a human-readable recovery narrative from a trace.

Turns a run's structured trace into the story an operator would want after
an incident: when each fault manifested, when and how it was detected, how
the evidence spread, when the fleet switched modes, what was shed, and when
outputs were clean again. Used by ``python -m repro run --timeline`` and by
tests that assert the narrative's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.runtime.system import RunResult
from ..sim.time import format_time
from ..sim.trace import (
    EvidenceAccepted,
    EvidenceGenerated,
    FaultInjected,
    ModeSwitchCompleted,
    TaskShed,
)
from .correctness import classify_slots


@dataclass(frozen=True)
class TimelineEntry:
    """One line of the incident narrative."""

    time: int
    kind: str
    text: str

    def render(self) -> str:
        return f"{format_time(self.time):>10}  {self.kind:<10} {self.text}"


#: The narrative stops after this many entries.
_MAX_ENTRIES = 200


def build_timeline(result: RunResult) -> List[TimelineEntry]:
    """The run's incident narrative, in time order."""
    entries: List[TimelineEntry] = []

    for event in result.trace.of_kind(FaultInjected):
        entries.append(TimelineEntry(
            event.time, "FAULT",
            f"{event.node} compromised ({event.fault_kind})",
        ))

    first_gen_per_accused = {}
    for event in result.trace.of_kind(EvidenceGenerated):
        key = (event.accused_node, event.fault_kind)
        if key in first_gen_per_accused:
            continue
        first_gen_per_accused[key] = event.time
        entries.append(TimelineEntry(
            event.time, "DETECT",
            f"{event.detector_node} produced {event.fault_kind} evidence "
            f"against {event.accused_node}",
        ))

    # "All informed": last node's first acceptance per accused.
    first_accept = {}
    for event in result.trace.of_kind(EvidenceAccepted):
        first_accept.setdefault((event.accused_node, event.node),
                                event.time)
    by_accused = {}
    for (accused, node), t in first_accept.items():
        by_accused.setdefault(accused, []).append(t)
    for accused, times in sorted(by_accused.items()):
        entries.append(TimelineEntry(
            max(times), "SPREAD",
            f"every correct node holds evidence against {accused} "
            f"({len(times)} acceptances)",
        ))

    switch_groups = {}
    for event in result.trace.of_kind(ModeSwitchCompleted):
        switch_groups.setdefault((event.time, event.mode), []).append(
            event.node)
    for (time, mode), nodes in sorted(switch_groups.items()):
        entries.append(TimelineEntry(
            time, "SWITCH",
            f"{len(nodes)} node(s) adopted plan {mode}",
        ))

    for event in result.trace.of_kind(TaskShed):
        entries.append(TimelineEntry(
            event.time, "SHED",
            f"task {event.task} (criticality {event.criticality}) "
            f"dropped by {event.mode}",
        ))

    # Recovery points: last disrupted slot per fault window.
    slots = classify_slots(result, R_us=0)
    disrupted = sorted(s.due for s in slots
                       if s.status != "correct" and not s.excused)
    if disrupted:
        entries.append(TimelineEntry(
            disrupted[-1], "RECOVERED",
            f"last disrupted output slot (of "
            f"{len(disrupted)}) — outputs clean afterwards",
        ))

    entries.sort(key=lambda e: (e.time, e.kind))
    return entries[:_MAX_ENTRIES]


def render_timeline(result: RunResult) -> str:
    """The narrative as printable text."""
    entries = build_timeline(result)
    if not entries:
        return "(uneventful run: no faults, no detections, no switches)"
    return "\n".join(entry.render() for entry in entries)

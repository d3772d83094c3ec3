"""Schedule soundness checks (rule family ``sched.*``).

A plan's :class:`~repro.sched.synthesis.GlobalSchedule` is the timetable
every node executes verbatim, and the timing-fault detector derives its
acceptance windows from it — a malformed timetable therefore produces
either deadline misses or phantom fault declarations at runtime. These
checks re-derive the invariants from the plan alone, trusting nothing the
synthesizer recorded about its own feasibility:

* no two slots overlap on one node, and no slot overruns the period;
* no consumer starts before every one of its planned inputs has arrived
  (precedence);
* every kept sink flow's planned arrival meets its deadline.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.planner.plan import Plan
from ..sched.table import ScheduleEntry
from .findings import Finding, Severity


def check_schedule(plan: Plan) -> List[Finding]:
    """Verify slot consistency, precedence, and deadlines of ``plan``."""
    findings: List[Finding] = []
    mode = plan.mode
    schedule = plan.schedule

    # --- per-node slot consistency -------------------------------------
    for node, node_schedule in sorted(schedule.node_schedules.items()):
        entries = sorted(node_schedule.entries, key=lambda e: e.start)
        for entry in entries:
            if entry.finish > schedule.period:
                findings.append(Finding(
                    rule="sched.overrun", severity=Severity.ERROR,
                    mode=mode, subject=f"{node}/{entry.task}",
                    message=(f"slot [{entry.start}, {entry.finish}) "
                             f"overruns period {schedule.period}"),
                ))
        for prev, cur in zip(entries, entries[1:]):
            if cur.start < prev.finish:
                findings.append(Finding(
                    rule="sched.overlap", severity=Severity.ERROR,
                    mode=mode, subject=node,
                    message=(f"{cur.task} [{cur.start}, {cur.finish}) "
                             f"overlaps {prev.task} "
                             f"[{prev.start}, {prev.finish})"),
                ))

    # --- precedence: a consumer never starts before its inputs ---------
    # Per node, each task's first slot: what ``schedule.slot_for`` finds
    # on the task's assigned node, indexed once for every flow.
    slots: Dict[str, Dict[str, ScheduleEntry]] = {
        node: {} for node in schedule.node_schedules}
    for node, node_schedule in schedule.node_schedules.items():
        for entry in node_schedule.entries:
            slots[node].setdefault(entry.task, entry)
    assignment = schedule.assignment
    tasks = plan.augmented.tasks
    for flow in plan.augmented.flows:
        if flow.dst not in tasks:
            continue
        host = assignment.get(flow.dst)
        consumer_slot = None if host is None else slots[host].get(flow.dst)
        arrival = schedule.arrivals.get(flow.name)
        if consumer_slot is None or arrival is None:
            continue
        if consumer_slot.start < arrival:
            findings.append(Finding(
                rule="sched.precedence", severity=Severity.ERROR,
                mode=mode, subject=flow.dst,
                message=(f"starts at {consumer_slot.start} but input "
                         f"{flow.name} arrives at {arrival}"),
            ))

    # --- deadlines of kept sink flows ----------------------------------
    for flow in plan.augmented.sink_flows():
        if flow.deadline is None:
            continue
        arrival = schedule.arrivals.get(flow.name)
        if arrival is None:
            findings.append(Finding(
                rule="sched.deadline", severity=Severity.ERROR,
                mode=mode, subject=flow.name,
                message="kept sink flow has no planned arrival",
            ))
        elif arrival > flow.deadline:
            findings.append(Finding(
                rule="sched.deadline", severity=Severity.ERROR,
                mode=mode, subject=flow.name,
                message=(f"planned arrival {arrival} exceeds deadline "
                         f"{flow.deadline}"),
            ))
    return findings


__all__ = ["check_schedule"]

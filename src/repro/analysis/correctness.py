"""The Definition 3.1 checker and empirical recovery measurement.

Definition 3.1 (bounded-time recovery): *a system offers recovery with a
time bound R if its outputs are correct in any interval [t1, t2] such that
no fault has manifested in [t1 − R, t2).*

This module alone knows the definition's three rules. **Slots**: every
expected output slot — one (sink flow, period) pair, due at its deadline
``d`` — is correct (right value, delivered by ``d``), wrong, late or
missing; flows the post-fault plan shed are excused from their shedding
time on (the paper's mixed-criticality sketch). **Excuse**: a bad, unshed
slot is excused under bound R by a fault at ``t`` with ``0 <= d − t <= R``.
**Windows**: faults in (time, node) order, fault ``i`` owning ``[t_i,
t_{i+1})`` and recovering at the latest bad, unshed due time in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.runtime.system import RunResult
from ..sim.trace import FaultInjected, OutputProduced
from .oracle import ReferenceOracle

CORRECT = "correct"
WRONG_VALUE = "wrong_value"
LATE = "late"
MISSING = "missing"


@dataclass(frozen=True)
class SlotVerdict:
    """Judgement of one expected output slot."""

    flow: str
    period_index: int
    due: int
    status: str          # CORRECT / WRONG_VALUE / LATE / MISSING
    #: Bad, and its flow was shed by the plan by the slot's due time.
    excused: bool
    criticality: str
    #: Time of the slot's first output; None when it has none.
    delivered_at: Optional[int] = None


@dataclass
class BTRVerdict:
    """The outcome of checking Definition 3.1 over a whole run."""

    R_us: int
    #: The run's slot table (``excused`` means shed by the plan).
    slots: Sequence[SlotVerdict]
    holds: bool
    #: Slots that were bad and not excused (empty iff holds).
    violations: List[SlotVerdict] = field(default_factory=list)


@dataclass
class FaultWindow:
    """One injected fault, its window ``[fault.time, end)`` (``end`` is
    None for the last fault) and its recovery (0: no output disrupted)."""

    fault: FaultInjected
    end: Optional[int]
    recovery_us: int = 0

    def contains(self, t: int) -> bool:
        return t >= self.fault.time and (self.end is None or t < self.end)


def classify_slots(result: RunResult,
                   excused_flows: Optional[Mapping[str, int]] = None
                   ) -> Tuple[SlotVerdict, ...]:
    """The run's slot table: every expected output slot, judged.

    ``excused_flows`` maps flow names to the time from which they are
    permanently excused (criticality shedding). By default it is the
    run's own record of shed flows, and the table is then built once and
    kept on the result; an explicit mapping builds a fresh table.
    """
    if excused_flows is None:
        if result._slot_table is None:
            result._slot_table = classify_slots(result,
                                                result.excused_flows)
        return result._slot_table
    workload = result.workload
    oracle = ReferenceOracle(workload)
    first: Dict[Tuple[str, int], OutputProduced] = {}
    for output in result.outputs():
        key = (output.flow, output.period_index)
        if key not in first or output.time < first[key].time:
            first[key] = output

    slots: List[SlotVerdict] = []
    for flow in workload.sink_flows():
        criticality = workload.flow_criticality(flow).value
        shed_from = excused_flows.get(flow.name)
        for k in range(result.n_periods):
            due = k * workload.period + (flow.deadline or workload.period)
            output = first.get((flow.name, k))
            if output is None:
                status = MISSING
            elif output.value != oracle.sink_value(flow.name, k):
                status = WRONG_VALUE
            elif output.time > due:
                status = LATE
            else:
                status = CORRECT
            slots.append(SlotVerdict(
                flow=flow.name, period_index=k, due=due, status=status,
                excused=(status != CORRECT and shed_from is not None
                         and due >= shed_from),
                criticality=criticality,
                delivered_at=None if output is None else output.time,
            ))
    return tuple(slots)


def btr_verdict(result: RunResult, R_us: int) -> BTRVerdict:
    """Check Definition 3.1 with bound ``R_us`` over a run."""
    slots = classify_slots(result)
    fault_times = result.fault_times().values()
    violations = [
        s for s in slots
        if s.status != CORRECT and not s.excused
        and not any(0 <= s.due - t <= R_us for t in fault_times)
    ]
    return BTRVerdict(R_us=R_us, slots=slots, holds=not violations,
                      violations=violations)


def fault_windows(result: RunResult,
                  excused_flows: Optional[Mapping[str, int]] = None
                  ) -> List[FaultWindow]:
    """Every injected fault's window, in (time, node) order."""
    faults = sorted(result.trace.of_kind(FaultInjected),
                    key=lambda e: (e.time, e.node))
    if not faults:
        return []
    bad = [s.due for s in classify_slots(result, excused_flows)
           if s.status != CORRECT and not s.excused]
    windows: List[FaultWindow] = []
    for i, fault in enumerate(faults):
        window = FaultWindow(
            fault, faults[i + 1].time if i + 1 < len(faults) else None)
        dues = [d for d in bad if window.contains(d)]
        window.recovery_us = max(dues) - fault.time if dues else 0
        windows.append(window)
    return windows


def recovery_times(result: RunResult,
                   excused_flows: Optional[Mapping[str, int]] = None
                   ) -> Dict[str, int]:
    """Empirical recovery time per injected fault: its window's
    ``recovery_us``, the smallest R that excuses all of that fault's
    disruption."""
    return {w.fault.node: w.recovery_us
            for w in fault_windows(result, excused_flows)}


def smallest_sufficient_R(result: RunResult,
                          excused_flows: Optional[Mapping[str, int]] = None
                          ) -> Optional[int]:
    """The smallest R for which Definition 3.1 holds over this run, or
    None when no R does: a bad, unexcused slot is due before the first
    injected fault (in a run that injects none, any bad slot), so no
    fault can excuse it."""
    first = min((e.time for e in result.trace.of_kind(FaultInjected)),
                default=None)
    if any(s.status != CORRECT and not s.excused
           and (first is None or s.due < first)
           for s in classify_slots(result, excused_flows)):
        return None
    return max(recovery_times(result, excused_flows).values(), default=0)

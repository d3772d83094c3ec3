"""The Definition 3.1 checker and empirical recovery measurement.

Definition 3.1 (bounded-time recovery): *a system offers recovery with a
time bound R if its outputs are correct in any interval [t1, t2] such that
no fault has manifested in [t1 − R, t2).*

Operationally, over a trace: every expected output slot — one (sink flow,
period) pair, due at its deadline ``d`` — must be **correct** (right value,
delivered by ``d``) unless some fault manifested in ``(d − R, d]``, in
which case the slot is *excused*. The mixed-criticality extension the paper
sketches ("allowing a certain set of outputs to fail permanently") is
captured by ``excused_flows``: flows shed by the post-fault plan are excused
from their shedding time onward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.runtime.system import RunResult
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
    excused: bool
    criticality: str


@dataclass
class BTRVerdict:
    """The outcome of checking Definition 3.1 over a whole run."""

    R_us: int
    slots: List[SlotVerdict]
    holds: bool
    #: Slots that were bad and not excused (empty iff holds).
    violations: List[SlotVerdict] = field(default_factory=list)


def classify_slots(result: RunResult,
                   excused_flows: Optional[Mapping[str, int]] = None,
                   R_us: int = 0) -> List[SlotVerdict]:
    """Judge every expected output slot of a run.

    ``excused_flows`` maps flow names to the time from which they are
    permanently excused (criticality shedding). ``R_us`` and the run's
    fault times drive the per-slot fault-window excuse.
    """
    workload = result.workload
    oracle = ReferenceOracle(workload)
    if excused_flows is None:
        # Default to the run's own record of deliberately shed flows.
        excused_flows = getattr(result, "excused_flows", {}) or {}
    fault_times = result.fault_times()

    produced: Dict[Tuple[str, int], List] = {}
    for output in result.outputs():
        produced.setdefault((output.flow, output.period_index),
                            []).append(output)

    def fault_in_window(due: int) -> bool:
        return any(due - R_us < t <= due for t in fault_times.values())

    slots: List[SlotVerdict] = []
    for flow in workload.sink_flows():
        for k in range(result.n_periods):
            due = k * workload.period + (flow.deadline or workload.period)
            records = produced.get((flow.name, k), [])
            if not records:
                status = MISSING
            else:
                first = min(records, key=lambda o: o.time)
                expected = oracle.sink_value(flow.name, k)
                if first.value != expected:
                    status = WRONG_VALUE
                elif first.time > due:
                    status = LATE
                else:
                    status = CORRECT
            shed_from = excused_flows.get(flow.name)
            excused = (
                status != CORRECT
                and (fault_in_window(due)
                     or (shed_from is not None and due >= shed_from))
            )
            slots.append(SlotVerdict(
                flow=flow.name, period_index=k, due=due, status=status,
                excused=excused,
                criticality=workload.flow_criticality(flow).value,
            ))
    return slots


def btr_verdict(result: RunResult, R_us: int,
                excused_flows: Optional[Mapping[str, int]] = None
                ) -> BTRVerdict:
    """Check Definition 3.1 with bound ``R_us`` over a run."""
    slots = classify_slots(result, excused_flows=excused_flows, R_us=R_us)
    violations = [s for s in slots if s.status != CORRECT and not s.excused]
    return BTRVerdict(R_us=R_us, slots=slots, holds=not violations,
                      violations=violations)


def recovery_times(result: RunResult,
                   excused_flows: Optional[Mapping[str, int]] = None
                   ) -> Dict[str, int]:
    """Empirical recovery time per injected fault.

    For each fault at time ``t_f``: the latest due time of a disrupted,
    non-shed slot in ``[t_f, next fault)``, minus ``t_f`` (0 if the fault
    never disrupted an output). This is the smallest R that would have
    excused all of that fault's disruption.
    """
    slots = classify_slots(result, excused_flows=excused_flows, R_us=0)
    disrupted_dues = sorted(
        s.due for s in slots if s.status != CORRECT and not s.excused
    )
    faults = sorted(result.fault_times().items(), key=lambda kv: kv[1])
    recovery: Dict[str, int] = {}
    for i, (node, t_f) in enumerate(faults):
        window_end = faults[i + 1][1] if i + 1 < len(faults) else None
        relevant = [
            d for d in disrupted_dues
            if d >= t_f and (window_end is None or d < window_end)
        ]
        recovery[node] = (max(relevant) - t_f) if relevant else 0
    return recovery


def smallest_sufficient_R(result: RunResult,
                          excused_flows: Optional[Mapping[str, int]] = None
                          ) -> int:
    """The smallest R for which Definition 3.1 holds over this run."""
    times = recovery_times(result, excused_flows=excused_flows)
    return max(times.values(), default=0)

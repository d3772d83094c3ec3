"""Per-node mode switching decisions (§4.4).

"When a node receives evidence of a new fault, it consults the strategy,
picks the plan for the new fault pattern, and initiates a mode change."

Convergence without agreement: the switch boundary is a **deterministic
function of the evidence** — the first period start at least
``switch_lead`` after the evidence's signed detection timestamp. Every
correct node that accepts the same evidence computes the same boundary, so
the fleet changes mode in lockstep without a consensus round. A node whose
evidence arrives after the boundary (distribution tail) switches
immediately — that node was briefly confused, which BTR's definition
explicitly tolerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..planner.plan import Plan
from ..planner.strategy import Strategy
from .faultset import FaultSet

#: Periods after a switch during which omission declarations are
#: suppressed (transition confusion tolerance, §4.4).
SUPPRESS_PERIODS = 2


@dataclass(frozen=True)
class PendingSwitch:
    """A decided transition: adopt ``plan`` at time ``at``."""

    at: int
    plan: Plan


def switch_boundary(evidence_time: int, switch_lead: int, period: int) -> int:
    """First period start ≥ evidence_time + switch_lead (deterministic)."""
    target = evidence_time + switch_lead
    periods = -(-target // period)  # ceil
    return periods * period


class ModeSwitcher:
    """One node's switching state machine."""

    def __init__(self, strategy: Strategy, period: int,
                 switch_lead: int, metrics=None) -> None:
        self.strategy = strategy
        self.period = period
        self.switch_lead = switch_lead
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
        self.metrics = metrics
        self.fault_set = FaultSet()
        self.current: Plan = strategy.nominal

    def _count(self, name: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, **labels)

    def on_implicated(self, node: str, evidence_time: int, now: int
                      ) -> Optional[PendingSwitch]:
        """Process an implication. Returns the switch to schedule, or None
        if the fault was already known / the plan does not change."""
        if not self.fault_set.add(node):
            self._count("implications_ignored", reason="known_fault")
            return None
        target = self.strategy.plan_for(self.fault_set.snapshot())
        if target.mode == self.current.mode:
            self._count("implications_ignored", reason="same_mode")
            return None
        at = switch_boundary(evidence_time, self.switch_lead, self.period)
        if at < now:
            at = now  # late learner: switch immediately
            self._count("mode_switches_scheduled", kind="late")
        else:
            self._count("mode_switches_scheduled", kind="boundary")
        return PendingSwitch(at=at, plan=target)

    def adopt(self, plan: Plan) -> None:
        self.current = plan

"""Timing-fault detection (§4.2): doing the right thing at the wrong time.

Every data message carries its sender's signed, period-relative send offset.
Senders sign **once per logical flow and period** — all copies of a flow
carry the same statement, which is what makes equivocation provable (two
different signed values for one (flow, period) slot).

The plan fixes when each statement should be handed to the MAC
(:meth:`~repro.core.planner.plan.Plan.planned_send_offset`): the
producing instance's slot finish (or period start, for sensor readings at a
source host). The receiver judges incoming messages against::

    [planned_handoff - slack, planned_handoff + slack]

Two cases:

* the *claimed* send offset is outside the window → the statement is
  self-incriminating, transferable timing evidence;
* the claimed offset is fine but the message actually arrived too late →
  the sender may be lying about its clock; that cannot be proven to third
  parties, so it degrades to a path declaration (the omission route).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..planner.plan import Plan

OK = "ok"
SELF_INCRIMINATING = "self_incriminating"
SUSPICIOUS_ARRIVAL = "suspicious_arrival"


class TimingPolicy:
    """The delivery-window rule, with its two slacks."""

    #: Allowed deviation of the *claimed* send offset from the plan.
    slack_us = 500
    #: Allowed deviation of the *actual* arrival from the plan.
    arrival_slack_us = 1_000

    def send_window(self, plan: Plan, flow_name: str
                    ) -> Optional[Tuple[int, int]]:
        """Accepted period-relative handoff offsets for a logical flow."""
        planned = plan.planned_send_offset(flow_name)
        if planned is None:
            return None
        return planned - self.slack_us, planned + self.slack_us

    def arrival_deadline(self, plan: Plan, flow_copy: str) -> Optional[int]:
        """Latest acceptable period-relative arrival of a concrete copy."""
        arrival = plan.planned_arrival(flow_copy)
        if arrival is None:
            return None
        return arrival + self.arrival_slack_us

    def judge(self, plan: Plan, flow_name: str, flow_copy: str,
              claimed_send_offset: int, actual_arrival_offset: int) -> str:
        """Classify one delivery. ``flow_name`` is the logical flow in the
        signed statement; ``flow_copy`` is the concrete copy delivered."""
        window = self.send_window(plan, flow_name)
        if window is not None:
            earliest, latest = window
            if not earliest <= claimed_send_offset <= latest:
                return SELF_INCRIMINATING
        deadline = self.arrival_deadline(plan, flow_copy)
        if deadline is not None and actual_arrival_offset > deadline:
            return SUSPICIOUS_ARRIVAL
        return OK


#: The policy every node judges deliveries with; the recovery budget and
#: the bounds analyzer price its slacks.
DEFAULT_TIMING = TimingPolicy()

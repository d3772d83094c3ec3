"""Recovery-budget accounting: what R a deployment can actually promise.

§3: "if the system has an overall deadline D after which damage can occur
in the absence of correct outputs, it seems prudent to set R := D/f rather
than R := D". This module implements that rule and the decomposition of an
achievable R into its stages::

    R_achieved = detection + distribution + switch alignment + settling

* detection — commission/timing faults surface within one period (the
  checker runs every period); omission faults need the arrival window,
  the grace wait, and enough periods to accumulate
  ``DEFAULT_SLOT_THRESHOLD`` declaration slots;
* distribution — network diameter × (per-hop transmission + propagation +
  control-lane verification);
* switch alignment — the switch boundary is the next period start after
  the lead time (the distribution bound), costing up to one period plus
  the lead;
* settling — one period for the new plan's pipeline to refill, plus
  state-transfer time for the worst single transition in the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...crypto.costs import VERIFY_US
from ...net.topology import Topology
from ...sched.lanes import LaneModel
from ...sim.message import MessageKind
from ..detector.omission import DEFAULT_SLOT_THRESHOLD, OMISSION_GRACE_US
from ..detector.timing import DEFAULT_TIMING
from ..modes.switcher import SUPPRESS_PERIODS
from ..planner.strategy import Strategy

#: Assumed worst-case evidence wire size for budgeting (a commission record
#: with a handful of statements).
EVIDENCE_BITS = 16_384


@dataclass(frozen=True)
class RecoveryBudget:
    """Decomposed worst-case recovery time for one deployment."""

    detection_us: int
    #: Also the switch lead: a mode switch takes effect at the first
    #: period start this long after the evidence's timestamp.
    distribution_us: int
    switch_us: int
    settling_us: int

    @property
    def total_us(self) -> int:
        return (self.detection_us + self.distribution_us
                + self.switch_us + self.settling_us)

    def to_dict(self) -> Dict[str, int]:
        """The four components and their total, as obs reports and
        bounds reports carry them."""
        return {
            "detection_us": int(self.detection_us),
            "distribution_us": int(self.distribution_us),
            "switch_us": int(self.switch_us),
            "settling_us": int(self.settling_us),
            "total_us": int(self.total_us),
        }


def recovery_bound_for_deadline(deadline_us: int, f: int) -> int:
    """The paper's R := D/f rule."""
    if deadline_us <= 0 or f <= 0:
        raise ValueError("deadline and f must be positive")
    return deadline_us // f


def distribution_bound(topology: Topology, lane_model: LaneModel,
                       metrics=None) -> int:
    """Worst-case time for valid evidence to reach every correct node.

    Evidence floods hop-by-hop on reserved EVIDENCE lanes; each hop costs
    one lane transmission of :data:`EVIDENCE_BITS`, propagation, and a
    full validation on the receiver's control lane before re-forwarding.

    Falls back to node count (a safe over-estimate of the diameter) when
    the graph is not connected; each fallback is counted on ``metrics``
    as ``budget_diameter_fallback{reason=not_connected}`` so a
    silently-pessimised budget stays visible.
    """
    diameter = topology.router.diameter()
    if diameter is None:
        diameter = len(topology.nodes)
        if metrics is not None:
            metrics.inc("budget_diameter_fallback", reason="not_connected")
    worst_hop = 0
    for link in topology.links.values():
        tx = lane_model.transmission_us(link, MessageKind.EVIDENCE,
                                        EVIDENCE_BITS)
        worst_hop = max(worst_hop, tx + link.propagation_us)
    min_ctrl_speed = min(
        node.lanes["ctrl"].speed for node in topology.nodes.values()
    )
    verify = int(VERIFY_US * 6 / max(min_ctrl_speed, 1e-9))
    return diameter * (worst_hop + verify)


def detection_bound(period: int, confusion_us: int = 0) -> int:
    """Worst-case time from fault manifestation to evidence generation.

    ``confusion_us`` covers a fault that manifests during the previous
    fault's post-switch confusion window, when omission/timing detection
    is deliberately suppressed (only possible when f ≥ 2 — a deployment
    that anticipates one fault never has a second to suppress).
    """
    commission = period  # caught by the next checker run
    # Omission: declarations accumulate one slot per broken edge per
    # period; the threshold is reached after at most
    # DEFAULT_SLOT_THRESHOLD periods (real faults break several edges at once, so usually less).
    # Extra periods cover the single-adjacency machinery (link-vs-node
    # disambiguation): a silent node needs two more corroborating slots,
    # and an *alive* evader hiding behind the link excuse is escalated
    # only after its charges span DEFAULT_SLOT_THRESHOLD + 2 periods.
    omission = ((2 * DEFAULT_SLOT_THRESHOLD + 3) * period
                + DEFAULT_TIMING.arrival_slack_us + OMISSION_GRACE_US)
    return confusion_us + max(commission, omission)


def compute_budget(strategy: Strategy, topology: Topology,
                   lane_model: LaneModel, metrics=None) -> RecoveryBudget:
    """The achievable recovery bound of a prepared deployment."""
    period = strategy.nominal.workload.period
    distribution = distribution_bound(topology, lane_model, metrics=metrics)
    # State transfer: worst single-step transition, shipped on STATE lanes.
    worst_bits = strategy.max_transition_state_bits()
    min_state_rate = min(
        (lane_model.rate_bits_per_us(link, MessageKind.STATE)
         for link in topology.links.values()),
        default=1.0,
    )
    transfer = int(worst_bits / max(min_state_rate, 1e-9))
    settling = period + transfer
    # With f >= 2, a second fault can land inside the first recovery's
    # confusion window, during which its detection is suppressed.
    confusion = (SUPPRESS_PERIODS * period + settling
                 if strategy.f >= 2 else 0)
    detection = detection_bound(period, confusion_us=confusion)
    return RecoveryBudget(
        detection_us=detection,
        distribution_us=distribution,
        switch_us=distribution + period,
        settling_us=settling,
    )

"""Verification entry points: one plan, or a whole strategy.

``verify_plan`` runs the per-plan rule families (schedule soundness,
placement validity, route/bandwidth feasibility); ``verify_strategy``
runs them over every plan and adds the cross-plan mode-graph and
analytic-bound checks. Both return a
:class:`~repro.verify.findings.Report` — they never raise on findings,
so callers decide the policy. :class:`VerificationError` is what
``BTRSystem.prepare(strict=True)`` raises when a report has an error.
"""

from __future__ import annotations

from ..core.planner.plan import Plan
from ..core.planner.strategy import Strategy
from ..net.topology import Topology
from .bounds.rules import bounds_findings
from .findings import Report
from .modegraph import check_mode_graph
from .placement import check_placement
from .routes import check_routes
from .schedule import check_schedule


class VerificationError(Exception):
    """A strategy or plan failed strict static verification."""

    def __init__(self, report: Report) -> None:
        super().__init__(report.summary())
        self.report = report


def verify_plan(plan: Plan, topology: Topology) -> Report:
    """Statically verify one plan. Returns a report; never raises."""
    report = Report()
    report.extend(check_schedule(plan))
    report.extend(check_placement(plan, topology))
    report.extend(check_routes(plan, topology))
    return report


def verify_strategy(
    strategy: Strategy,
    topology: Topology,
    config,
    lane_model,
    budget=None,
) -> Report:
    """Statically verify a full strategy: every plan, the mode graph and
    the ``bound.*`` rule family.

    The bound rules need the runtime config (R, clock drift) and the lane
    schedule to price recovery, which the plan artifacts alone don't
    carry, so both are required: every call runs every rule.
    """
    report = Report()
    for pattern in strategy.patterns():
        report.extend(verify_plan(strategy.plan_for(pattern),
                                  topology).findings)
    report.extend(check_mode_graph(strategy, topology))
    report.extend(bounds_findings(strategy, topology, lane_model, config,
                                  budget=budget))
    return report


def require_clean(report: Report) -> Report:
    """Raise :class:`VerificationError` if ``report`` has an error;
    warnings pass."""
    if report.exit_code() != 0:
        raise VerificationError(report)
    return report


__all__ = ["VerificationError", "verify_plan", "verify_strategy",
           "require_clean"]

"""The ``bound.*`` verify rule family over the static analyzer's output.

Three rules, reported through the same :class:`Finding`/:class:`Report`
machinery as every other rule family so ``repro verify`` and
``prepare(strict=True)`` gate on them uniformly:

``bound.exceeds-budget`` (error when the operator pinned ``config.R_us``,
    warning when R derives from the computed budget)
    a class's analytic worst-case recovery exceeds the R the deployment
    promises — Definition 3.1 cannot be guaranteed for that fault
    class. A pinned R is an operator promise, so breaking it is fatal;
    a derived R is the budget's own estimate, so exceeding it flags the
    budget decomposition as optimistic rather than the deployment as
    unsound;
``bound.unachievable`` (warning)
    a victim's silent fault can never be attributed from the declaration
    structure the mode's routes induce (too few distinct declarers, no
    charged path, or a co-charged route node that ties the blame count)
    — recovery then relies on path avoidance, not conviction;
``bound.phase-dominates-r`` (warning)
    a single phase's bound alone consumes most of R: the budget has no
    slack left for the other phases, a fragility worth eyes even when
    the total still fits.
"""

from __future__ import annotations

from typing import List

from ...core.planner.strategy import Strategy
from ...core.runtime.config import BTRConfig
from ...net.topology import Topology
from ...sched.lanes import LaneModel
from ..findings import Finding, Severity
from .analyzer import compute_bounds

#: A phase bound larger than this fraction of R (numerator/denominator)
#: triggers ``bound.phase-dominates-r``.
DOMINANCE_NUM, DOMINANCE_DEN = 3, 5


def bounds_findings(strategy: Strategy, topology: Topology,
                    lane_model: LaneModel, config: BTRConfig,
                    budget=None) -> List[Finding]:
    """Run the ``bound.*`` rules over :func:`compute_bounds`' report,
    which the strategy keeps for an equal repeat call."""
    report = compute_bounds(strategy, topology, lane_model, config,
                            budget=budget)
    findings: List[Finding] = []
    seen_unachievable = set()
    pinned = config.R_us is not None
    for entry in report.entries:
        if entry.total_us > report.R_us:
            findings.append(Finding(
                rule="bound.exceeds-budget",
                severity=Severity.ERROR if pinned else Severity.WARNING,
                mode=entry.mode,
                subject=entry.fault_class,
                message=(f"analytic worst case {entry.total_us}us "
                         f"(worst victim {entry.worst_victim}) exceeds "
                         + (f"pinned R={report.R_us}us"
                            if pinned else
                            f"the computed budget R={report.R_us}us")),
            ))
        for victim, reason in entry.unachievable.items():
            key = (entry.mode, victim)
            if key in seen_unachievable:
                continue
            seen_unachievable.add(key)
            findings.append(Finding(
                rule="bound.unachievable",
                severity=Severity.WARNING,
                mode=entry.mode,
                subject=victim,
                message=f"silent-fault conviction unreachable: {reason}",
            ))
        for phase, span in entry.phases.items():
            if span * DOMINANCE_DEN > report.R_us * DOMINANCE_NUM:
                findings.append(Finding(
                    rule="bound.phase-dominates-r",
                    severity=Severity.WARNING,
                    mode=entry.mode,
                    subject=f"{entry.fault_class}/{phase}",
                    message=(f"phase bound {span}us alone is more than "
                             f"{100 * DOMINANCE_NUM // DOMINANCE_DEN}% "
                             f"of R={report.R_us}us"),
                ))
    return findings


__all__ = ["bounds_findings", "DOMINANCE_NUM", "DOMINANCE_DEN"]

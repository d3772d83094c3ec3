"""Mode-graph completeness checks (rule family ``mode.*``).

The whole BTR guarantee quantifies over *anticipated* fault patterns: the
strategy must hold a plan for every pattern of size ≤ f over the nodes it
covers, and every single-fault-step transition between plans must be
executable — in particular, each stateful instance that migrates must
have somewhere *correct* to fetch its state from (a fetch whose only
source died with the fault silently restarts the task from scratch, which
voids the recovery-time argument of §4.4).
"""

from __future__ import annotations

from typing import List

from ..core.modes.transition import compute_transition
from ..core.planner.strategy import Strategy
from ..faults.patterns import all_patterns_up_to, mode_id
from ..net.routing import RoutingError
from ..net.topology import Topology
from .findings import Finding, Severity


def check_mode_graph(
    strategy: Strategy,
    topology: Topology,
) -> List[Finding]:
    """Verify coverage and transition soundness of ``strategy``."""
    findings: List[Finding] = []
    router = topology.router

    # --- completeness: every anticipated pattern has a plan ------------
    for pattern in all_patterns_up_to(strategy.covered_nodes, strategy.f):
        if not strategy.has_plan(pattern):
            findings.append(Finding(
                rule="mode.missing-plan", severity=Severity.ERROR,
                mode=mode_id(pattern),
                subject="{" + ",".join(sorted(pattern)) + "}",
                message=(f"anticipated pattern of size {len(pattern)} "
                         f"<= f={strategy.f} has no plan"),
            ))

    # --- transitions: every single-fault step can move its state -------
    nodes = sorted(topology.nodes)
    for child in strategy.patterns():
        if not child:
            continue
        child_plan = strategy.plan_for(child)
        for failed in sorted(child):
            parent = child - {failed}
            if not strategy.has_plan(parent):
                continue  # already reported as mode.missing-plan
            parent_plan = strategy.plan_for(parent)
            # Only a node that gains an instance in this step has anything
            # to fetch; with distance-minimising placement that is a few.
            parent_host = parent_plan.assignment.get
            starting = {node for instance, node
                        in child_plan.assignment.items()
                        if parent_host(instance) != node}
            for node in nodes:
                if node in child or node not in starting:
                    continue
                transition = compute_transition(
                    node, parent_plan, child_plan, child)
                for fetch in transition.fetches:
                    subject = f"{node}<-{fetch.instance}"
                    if fetch.source is None:
                        findings.append(Finding(
                            rule="mode.orphan-fetch",
                            severity=Severity.ERROR,
                            mode=child_plan.mode, subject=subject,
                            message=(f"no correct node holds the "
                                     f"{fetch.bits}-bit state of "
                                     f"{fetch.instance} after "
                                     f"{failed} fails"),
                        ))
                        continue
                    if fetch.source in child:
                        findings.append(Finding(
                            rule="mode.orphan-fetch",
                            severity=Severity.ERROR,
                            mode=child_plan.mode, subject=subject,
                            message=(f"state source {fetch.source} is "
                                     f"itself faulty in the new pattern"),
                        ))
                        continue
                    try:
                        router.route(fetch.source, node, excluding=child)
                    except RoutingError:
                        findings.append(Finding(
                            rule="mode.fetch-unroutable",
                            severity=Severity.WARNING,
                            mode=child_plan.mode, subject=subject,
                            message=(f"no route from {fetch.source} "
                                     f"avoiding the new fault pattern"),
                        ))
    return findings


__all__ = ["check_mode_graph"]

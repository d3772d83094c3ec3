"""Route and bandwidth feasibility checks (rule family ``route.*``).

A plan's per-flow routes are frozen at planning time; the runtime
dispatcher forwards along them blindly. A route that references a missing
link silently drops traffic, one that crosses a node the mode considers
faulty hands the adversary the flow, and a set of routes that collectively
over-subscribe a link breaks the static-reservation discipline — the
planned transmission times stop being achievable. These checks re-validate
every route against the topology and re-run the reservation admission
arithmetic (:data:`HEADROOM` times each flow's mean rate, summed per link)
without mutating any link state.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.planner.plan import Plan
from ..net.topology import Topology
from .findings import Finding, Severity

#: Multiplicative headroom over a flow's mean rate, covering burstiness
#: within a period (a whole message is sent back-to-back, not smoothly).
HEADROOM = 2.0


def check_routes(plan: Plan, topology: Topology) -> List[Finding]:
    """Verify every route of ``plan`` exists, avoids faulty nodes, starts
    and ends at the right hosts, and fits the link reservation budget."""
    findings: List[Finding] = []
    mode = plan.mode
    faulty = plan.pattern
    period_seconds = plan.augmented.period / 1e6
    adjacency = topology.adjacency
    links = topology.links
    flow_of = plan.augmented.flow
    assignment = plan.assignment
    endpoint_map = topology.endpoint_map
    # (link_id, sender) -> accumulated DATA share, reservation-style.
    shares: Dict[Tuple[str, str], float] = {}

    for flow_name in sorted(plan.routes):
        route = plan.routes[flow_name]
        try:
            flow = flow_of(flow_name)
        except KeyError:
            findings.append(Finding(
                rule="route.unknown-flow", severity=Severity.WARNING,
                mode=mode, subject=flow_name,
                message="route for a flow the augmented graph does not "
                        "contain",
            ))
            continue
        if not route:
            continue

        if not faulty.isdisjoint(route):
            for node in route:
                if node in faulty:
                    findings.append(Finding(
                        rule="route.faulty-node", severity=Severity.ERROR,
                        mode=mode, subject=flow_name,
                        message=(f"route {'>'.join(route)} passes through "
                                 f"faulty node {node}"),
                    ))

        # Each endpoint's host: its assigned instance or pinned I/O node.
        src_host = assignment.get(flow.src)
        if src_host is None:
            src_host = endpoint_map.get(flow.src)
        dst_host = assignment.get(flow.dst)
        if dst_host is None:
            dst_host = endpoint_map.get(flow.dst)
        if src_host is not None and route[0] != src_host:
            findings.append(Finding(
                rule="route.endpoint-mismatch", severity=Severity.ERROR,
                mode=mode, subject=flow_name,
                message=(f"route starts at {route[0]} but producer "
                         f"{flow.src} is hosted on {src_host}"),
            ))
        if dst_host is not None and route[-1] != dst_host:
            findings.append(Finding(
                rule="route.endpoint-mismatch", severity=Severity.ERROR,
                mode=mode, subject=flow_name,
                message=(f"route ends at {route[-1]} but consumer "
                         f"{flow.dst} is hosted on {dst_host}"),
            ))

        # Reservation arithmetic: headroom times the flow's mean rate, as
        # a fraction of each hop's raw link rate.
        reserved_rate = HEADROOM * (flow.size_bits / period_seconds)
        for sender, receiver in zip(route, route[1:]):
            neighbours = adjacency.get(sender)
            link_id = (neighbours.get(receiver)
                       if neighbours is not None else None)
            if link_id is None:
                findings.append(Finding(
                    rule="route.broken-path", severity=Severity.ERROR,
                    mode=mode, subject=flow_name,
                    message=f"no link between {sender} and {receiver}",
                ))
                continue
            key = (link_id, sender)
            shares[key] = (shares.get(key, 0.0)
                           + reserved_rate / links[link_id].bandwidth_bps)

    # Admission: the per-link sum of all accumulated sender shares must
    # fit within the link (1.0).
    per_link: Dict[str, float] = {}
    for (link_id, _sender), share in shares.items():
        per_link[link_id] = per_link.get(link_id, 0.0) + share
    for link_id in sorted(per_link):
        total = per_link[link_id]
        if total > 1.0 + 1e-9:
            findings.append(Finding(
                rule="route.overbooked", severity=Severity.ERROR,
                mode=mode, subject=link_id,
                message=(f"routed data traffic needs {total:.3f} of the "
                         f"link (headroom {HEADROOM}); only 1.0 is "
                         f"reservable"),
            ))
    return findings


__all__ = ["check_routes"]

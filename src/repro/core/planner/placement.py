"""Task-instance placement: hard constraints plus the paper's heuristics.

§4.1: "Each task is mapped to a node; this involves some 'hard' constraints
— for instance, no two replicas of the same task can run on the same node —
but also some heuristics: for instance, putting replicas close to each other
may save bandwidth, and putting checking tasks close to replicas can make it
easier to detect omission faults."

The placer is a deterministic greedy scorer. Instances are placed base-task
by base-task in topological order (inputs are already placed, so locality is
computable). Candidates are scored by::

    score = W_LOAD * projected_load
          + W_LOCALITY * mean_hops_to_input_producers
          + W_DISTANCE * migration_cost_from_parent_plan
          + W_EXPOSURE * connectivity_collapse * stranded_state

Hard constraints: instances of the same base task pairwise on distinct
nodes; no instance on a node in the mode's fault pattern. Lower score wins;
ties break on node name, so placement is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ...net.topology import Topology
from ...workload.dataflow import DataflowGraph
from . import naming


class PlacementError(Exception):
    """Raised when hard constraints cannot be satisfied."""


#: The weights of the score in the module docstring.
W_LOAD = 1.0
W_LOCALITY = 0.15
W_DISTANCE = 0.3
W_EXPOSURE = 0.3


@dataclass(frozen=True)
class PlacementConfig:
    """The planner's ablation toggles (E11/E12/E13 flip them)."""

    #: Seed each child plan's placement with its parent's assignment, so
    #: transitions move little state (ablation E11).
    minimize_distance: bool = True
    #: Disable the locality heuristic (ablation E12).
    use_locality: bool = True
    #: Disable the strategic exposure term (ablation E13). The paper's
    #: chess analogy (§4.1): a plan that parks a big-state task on a node
    #: whose only high-bandwidth connection runs via Y makes the later
    #: plan for {…, Y} expensive — state would have to leave over a thin
    #: link. The exposure term penalizes placing state on nodes whose
    #: connectivity collapses when their best-connected neighbour fails.
    use_exposure: bool = True


def node_exposure(topology: Topology, node_id: str) -> float:
    """How much a node's bandwidth collapses if its fattest link is lost.

    Returns best_bandwidth / second_best_bandwidth over the node's
    attached links (a large value for single-homed or thin-backup nodes,
    ~1.0 for well-connected ones). This is the static proxy for the
    game-tree lookahead the paper suggests.
    """
    links = topology.nodes[node_id].links
    rates = sorted((links[link_id].bandwidth_bps for link_id in links),
                   reverse=True)
    if not rates:
        return float("inf")
    if len(rates) == 1:
        return 100.0  # single-homed: losing the neighbour strands it
    return rates[0] / rates[1]


def place(
    augmented: DataflowGraph,
    topology: Topology,
    excluding: Set[str],
    config: Optional[PlacementConfig] = None,
    parent_assignment: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Assign every instance in ``augmented`` to a node. See module doc.

    ``parent_assignment`` is the parent mode's assignment; keeping instances
    where the parent put them avoids state migration ("B must obviously
    reassign the tasks that were running on X, but it should otherwise
    change as little as possible").
    """
    config = config or PlacementConfig()
    router = topology.router
    excluded = frozenset(excluding)  # the router's hop-table key, once
    eligible = [n for n in sorted(topology.nodes) if n not in excluded]
    if not eligible:
        raise PlacementError("no eligible nodes")

    # Group instances by base task so the anti-affinity constraint is local.
    group_of = {inst: naming.base_task(inst) for inst in augmented.tasks}
    groups: Dict[str, List[str]] = {}
    for instance in augmented.tasks:
        groups.setdefault(group_of[instance], []).append(instance)
    largest = max(map(len, groups.values()), default=0)
    if largest > len(eligible):
        raise PlacementError(
            f"{largest} instances of one task but only "
            f"{len(eligible)} eligible nodes"
        )

    assignment: Dict[str, str] = {}
    load: Dict[str, int] = {n: 0 for n in eligible}  # nominal µs per period
    capacity_us = augmented.period
    unreachable = len(topology.nodes)  # effectively infinitely far
    # Per node, once: CPU speed and, for the nodes whose connectivity
    # collapses with their fattest link, the weighted collapse.
    fg_speed = {n: max(topology.nodes[n].lanes["fg"].speed, 1e-9)
                for n in eligible}
    exposure_cost: Dict[str, float] = {}
    if config.use_exposure:
        for n in eligible:
            collapse = min(node_exposure(topology, n) - 1.0, 10.0)
            if collapse > 0:
                exposure_cost[n] = W_EXPOSURE * collapse

    # Base tasks in topological order of the *original* graph structure so
    # input producers are placed before consumers. The augmented graph's own
    # topological order gives exactly this (replicas before checkers, etc.).
    for instance in augmented.topological_order():
        task = augmented.tasks[instance]
        taken = {assignment[m] for m in groups[group_of[instance]]
                 if m in assignment}
        candidates = [n for n in eligible if n not in taken]
        if not candidates:
            raise PlacementError(f"no node left for {instance}")

        # Per instance, once: where its inputs come from (already placed,
        # or a pinned endpoint) as one hop table per known producer, what
        # moving it away from the parent plan's host costs, and how much
        # state it would strand on an exposed node.
        hop_tables = []
        if config.use_locality:
            for flow in augmented.inputs_of(instance):
                producer = (assignment.get(flow.src)
                            or topology.endpoint_map.get(flow.src))
                if producer is not None:
                    hop_tables.append(router.hops_from(producer, excluded))
        parent_node = (parent_assignment.get(instance)
                       if parent_assignment is not None else None)
        move_cost = W_DISTANCE * (1.0 + task.state_bits / 65536.0)
        # Stateful instances risk migrating over the thin fallback; even
        # stateless ones push data-plane flows over it once the fat
        # uplink's neighbour fails.
        stranded = 0.2 + task.state_bits / 65536.0

        # The lowest score wins; candidates are in name order, so the
        # first of equal scores is the tie-break's winner.
        wcet = task.wcet
        best = candidates[0]
        best_score: Optional[float] = None
        for node in candidates:
            value = W_LOAD * ((load[node] + wcet) / fg_speed[node]
                              / capacity_us)
            if hop_tables:
                hops = 0
                for table in hop_tables:
                    hops += table.get(node, unreachable)
                value += W_LOCALITY * (hops / len(hop_tables))
            if parent_node is not None and parent_node != node:
                # Moving costs (normalised) state transfer.
                value += move_cost
            exposed = exposure_cost.get(node)
            if exposed is not None:
                value += exposed * stranded
            if best_score is None or value < best_score:
                best, best_score = node, value
        assignment[instance] = best
        load[best] += wcet

    return assignment

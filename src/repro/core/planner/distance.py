"""Plan distance: the migration cost between two plans.

§4.1: extra reassignments between consecutive plans "will consume resources
(e.g., bandwidth for transferring state) and can thus prolong recovery". The
distance between a parent plan and a child plan is the cost of the mode
transition between them: how many task instances move, and how many bits of
task state those moves must ship over STATE lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...workload.dataflow import DataflowGraph


@dataclass(frozen=True)
class PlanDistance:
    """Migration cost decomposition between two assignments."""

    moved_instances: int
    state_bits: int
    new_instances: int
    removed_instances: int


def plan_distance(
    parent_assignment: Dict[str, str],
    child_assignment: Dict[str, str],
    child_graph: DataflowGraph,
) -> PlanDistance:
    """Cost of transitioning from the parent's placement to the child's.

    Instances present in both but on different nodes are *moves* and ship
    their state; instances only in the child are *new* (state must be
    rebuilt or fetched from a surviving replica); instances only in the
    parent are simply stopped.
    """
    moved = 0
    bits = 0
    new = 0
    for instance, node in sorted(child_assignment.items()):
        parent_node = parent_assignment.get(instance)
        if parent_node is None:
            new += 1
            continue
        if parent_node != node:
            moved += 1
            task = child_graph.tasks.get(instance)
            if task is not None:
                bits += task.state_bits
    removed = sum(
        1 for instance in parent_assignment if instance not in child_assignment
    )
    return PlanDistance(
        moved_instances=moved,
        state_bits=bits,
        new_instances=new,
        removed_instances=removed,
    )

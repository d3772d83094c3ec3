"""Mixed-criticality shedding order.

The paper leans on mixed-criticality workloads twice: normal operation runs
everything, but "when a fault occurs, the system can disable some of the less
critical tasks and allocate their resources to the more critical ones" (§1).
This module answers the planner's question: *given reduced capacity, which
criticality levels can be kept?*
"""

from __future__ import annotations

from typing import List, Set

from ..workload.criticality import Criticality
from ..workload.dataflow import DataflowGraph


def keep_levels(levels_kept: int) -> Set[Criticality]:
    """The most-critical ``levels_kept`` levels (1 => {A}, 4 => all)."""
    if not 0 <= levels_kept <= 4:
        raise ValueError("levels_kept must be in [0, 4]")
    return set(Criticality.ordered()[:levels_kept])


def shed_workload(workload: DataflowGraph, levels: Set[Criticality]
                  ) -> DataflowGraph:
    """Restrict a workload to tasks at the given criticality levels,
    together with everything their surviving sink flows depend on.

    A task below the cut survives if a kept sink flow transitively needs it
    (dropping it would silently break a critical output).
    """
    keep: Set[str] = set()
    for flow in workload.sink_flows():
        if workload.flow_criticality(flow) in levels:
            keep |= workload.tasks_feeding_sink_flow(flow)
    keep |= {
        name for name, task in sorted(workload.tasks.items())
        if task.criticality in levels
    }
    # Closure: kept tasks drag in their upstream dependencies.
    for task_name in list(keep):
        keep |= workload.upstream_closure(task_name)
    return workload.restricted_to(
        keep, name=f"{workload.name}|{''.join(sorted(l.value for l in levels))}"
    )


def shedding_ladder(workload: DataflowGraph) -> List[DataflowGraph]:
    """Progressively smaller workloads: full, drop D, drop CD, drop BCD.

    The planner walks this ladder when a mode is unschedulable; the last
    rung that fits wins. An empty rung (no A tasks, say) is skipped.
    """
    ladder: List[DataflowGraph] = [workload]
    for kept in (3, 2, 1):
        levels = keep_levels(kept)
        shed = shed_workload(workload, levels)
        if shed.tasks and len(shed.tasks) < len(ladder[-1].tasks):
            ladder.append(shed)
    return ladder

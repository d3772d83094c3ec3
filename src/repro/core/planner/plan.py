"""Plans: one mode's complete prescription.

§4: "a plan ... is basically a distributed schedule: it maps the tasks from
the workload (and some additional tasks, such as replicas) to specific
nodes, and it prescribes a schedule for each of the nodes."

A :class:`Plan` bundles, for one fault pattern:

* the (possibly shed) workload in force and which criticality levels it
  keeps;
* the augmented instance graph and the instance→node assignment;
* the synthesized :class:`~repro.sched.synthesis.GlobalSchedule`;
* derived runtime info: per-flow routes and planned arrival times, which
  the dispatcher and the timing-fault detector both consult.

:func:`build_plan` walks the criticality shedding ladder until a rung is
schedulable (the paper: "the planner removes some of the less critical
tasks and retries").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...faults.patterns import FaultPattern, mode_id
from ...net.topology import Topology
from ...sched.lanes import LaneModel
from ...sched.mixed_criticality import shedding_ladder
from ...sched.synthesis import GlobalSchedule, synthesize
from ...workload.criticality import Criticality
from ...workload.dataflow import DataflowGraph
from . import naming
from .augment import AugmentConfig, augment
from .placement import PlacementConfig, PlacementError, place


class PlanningError(Exception):
    """Raised when no schedulable plan exists even after full shedding."""


@dataclass
class Plan:
    """One mode's full prescription. Immutable once built — and because a
    :class:`DataflowGraph` is never mutated after ``__init__``, every plan
    of a strategy that kept the same rung holds the *same* ``workload``
    and ``augmented`` objects."""

    pattern: FaultPattern
    workload: DataflowGraph          # possibly shed
    augmented: DataflowGraph
    assignment: Dict[str, str]
    schedule: GlobalSchedule
    kept_levels: Set[Criticality]
    #: Route (node path, inclusive) per flow copy; [node] for local flows.
    routes: Dict[str, List[str]] = field(default_factory=dict)
    #: node id -> that node's compiled runtime tables
    #: (:func:`repro.core.runtime.program.node_program`), built on first
    #: use. The plan holds them because its lifetime bounds theirs: every
    #: run, sweep sibling and mode switch that reaches this plan object
    #: executes the same tables.
    programs: Dict[str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: flow or copy name -> planned handoff, filled by
    #: :meth:`planned_send_offset` on first use.
    _send_offsets: Optional[Dict[str, Optional[int]]] = field(
        default=None, init=False, repr=False, compare=False)
    #: node -> its instances, sorted; filled by :meth:`instances_on`.
    _hosted: Optional[Dict[str, List[str]]] = field(
        default=None, init=False, repr=False, compare=False)
    #: base task -> ``(instance, host)`` of its replicas, sorted by
    #: instance; filled by :meth:`replica_hosts`.
    _replicas: Optional[Dict[str, List[Tuple[str, str]]]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def mode(self) -> str:
        return mode_id(self.pattern)

    def instances_on(self, node: str) -> List[str]:
        """The instances ``node`` hosts, sorted (a fresh list)."""
        hosted = self._hosted
        if hosted is None:
            hosted = self._hosted = {}
            for inst in sorted(self.assignment):
                hosted.setdefault(self.assignment[inst], []).append(inst)
        return list(hosted.get(node, ()))

    def replica_hosts(self, task: str) -> List[Tuple[str, str]]:
        """``(instance, host)`` of every non-checker instance of base
        task ``task``, sorted by instance (read-only; the list is
        shared)."""
        replicas = self._replicas
        if replicas is None:
            replicas = self._replicas = {}
            for inst, host in sorted(self.assignment.items()):
                if not naming.is_checker(inst):
                    replicas.setdefault(naming.base_task(inst), []).append(
                        (inst, host))
        return replicas.get(task, [])

    def planned_arrival(self, flow_copy: str) -> Optional[int]:
        """Planned arrival (µs after period start) at the final consumer."""
        return self.schedule.arrivals.get(flow_copy)

    def planned_send_offset(self, flow_name: str) -> Optional[int]:
        """Planned handoff (µs after period start) of a logical flow.

        ``flow_name`` may be a logical (base) flow name or a concrete
        copy; all copies share the producer and therefore the handoff:
        its slot finish, or 0 for a source endpoint (readings are handed
        off at period start). None when the flow is unknown to this plan
        (e.g. shed) or its producer has no slot. Names are resolved
        against the augmented flows in declaration order, first match
        wins, exactly as a scan over them would."""
        table = self._send_offsets
        if table is None:
            table = self._send_offsets = {}
            tasks = self.augmented.tasks
            for flow in self.augmented.flows:
                if flow.src not in tasks:
                    offset: Optional[int] = 0
                else:
                    slot = self.schedule.slot_for(flow.src)
                    offset = slot.finish if slot is not None else None
                table.setdefault(flow.name, offset)
                table.setdefault(naming.base_flow(flow.name), offset)
        return table.get(flow_name)

    def next_hop(self, flow_copy: str, current: str) -> Optional[str]:
        """Next node after ``current`` on the flow's route, or None."""
        route = self.routes.get(flow_copy)
        if not route:
            return None
        try:
            idx = route.index(current)
        except ValueError:
            return None
        return route[idx + 1] if idx + 1 < len(route) else None

    def shed_tasks(self, full_workload: DataflowGraph) -> List[str]:
        """Original tasks dropped by this plan relative to the full
        workload."""
        return sorted(set(full_workload.tasks) - set(self.workload.tasks))


def derive_routes(schedule: GlobalSchedule, augmented: DataflowGraph,
                  topology: Topology, assignment: Dict[str, str]
                  ) -> Dict[str, List[str]]:
    """Each flow's route (node path, inclusive), read off the planned
    hops of ``schedule``; a flow with no hop is local to its producer's
    node. Every deployment's plan — BTR's modes and the baselines' one
    plan — takes its routes from here."""
    routes: Dict[str, List[str]] = {}
    for t in schedule.transmissions:
        path = routes.setdefault(t.flow, [])
        if not path:
            path.append(t.sender)
        path.append(t.receiver)
    # Local flows (no transmissions): the route is the single hosting node.
    for flow in augmented.flows:
        if flow.name in routes:
            continue
        src = flow.src
        node = assignment.get(src) or topology.endpoint_map.get(src)
        if node is not None:
            routes[flow.name] = [node]
    return routes


#: One rung of the shedding ladder with its augmented instance graph.
Rung = Tuple[DataflowGraph, DataflowGraph]


def augmented_ladder(full_workload: DataflowGraph,
                     augment_config: AugmentConfig) -> List[Rung]:
    """The shedding ladder of ``full_workload``, each rung augmented.

    Neither half reads the fault pattern, so a strategy builds this once
    and hands it to every :func:`build_plan` call."""
    return [(rung, augment(rung, augment_config))
            for rung in shedding_ladder(full_workload)]


def build_plan(
    full_workload: DataflowGraph,
    pattern: FaultPattern,
    topology: Topology,
    f: int,
    lane_model: Optional[LaneModel] = None,
    placement_config: Optional[PlacementConfig] = None,
    parent_assignment: Optional[Dict[str, str]] = None,
    ladder: Optional[Sequence[Rung]] = None,
) -> Plan:
    """Build the plan for ``pattern``, shedding criticality as needed.

    ``ladder`` is :func:`augmented_ladder` of the workload when the caller
    plans more than one pattern; the plan keeps the rung's graph objects
    as they are (graphs are never mutated after ``__init__``), so plans
    built from one ladder share them."""
    lane_model = lane_model or LaneModel(topology)
    if ladder is None:
        ladder = augmented_ladder(full_workload,
                                  AugmentConfig(replicas=f + 1))

    failures: List[str] = []
    for rung, augmented in ladder:
        try:
            assignment = place(
                augmented, topology, pattern,
                config=placement_config,
                parent_assignment=parent_assignment,
            )
        except PlacementError as exc:
            failures.append(f"{rung.name}: placement: {exc}")
            continue
        schedule = synthesize(
            augmented, assignment, topology,
            lane_model=lane_model, excluding=pattern,
        )
        if not schedule.feasible:
            failures.append(
                f"{rung.name}: {len(schedule.violations)} violations "
                f"(first: {schedule.violations[0]})"
            )
            continue
        routes = derive_routes(schedule, augmented, topology, assignment)
        return Plan(
            pattern=pattern,
            workload=rung,
            augmented=augmented,
            assignment=assignment,
            schedule=schedule,
            kept_levels={rung.tasks[name].criticality
                         for name in rung.tasks},
            routes=routes,
        )
    raise PlanningError(
        f"no schedulable plan for pattern {sorted(pattern)}: "
        + "; ".join(failures)
    )

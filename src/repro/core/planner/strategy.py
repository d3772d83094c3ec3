"""Strategies: the complete game tree of plans over fault patterns.

§4: "Together, the plans, and the conditions for switching between them,
form the system's strategy for responding to faults." And §4.1's chess
analogy: the plan chosen for pattern {X} constrains which plans are cheaply
reachable for {X, Y}; the builder therefore constructs plans breadth-first
by pattern size and seeds each child's placement with its parent's
assignment so transitions move as little state as possible (toggled by
:attr:`PlacementConfig.minimize_distance` for the E11 ablation).

The strategy is computed entirely offline ("choosing the strategy offline
seems safer than dynamic rescheduling at runtime") and a copy is installed
on every node; lookups at runtime are pure dictionary reads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ...faults.patterns import (
    FaultPattern,
    all_patterns_up_to,
    pattern as make_pattern,
    strategy_size,
)
from ...net.topology import Topology
from ...sched.lanes import LaneModel
from ...workload.dataflow import DataflowGraph
from .augment import AugmentConfig
from .distance import PlanDistance, plan_distance
from .placement import PlacementConfig
from .plan import Plan, PlanningError, augmented_ladder, build_plan


#: Version of the planning algorithm itself. Any change that can alter
#: the plans produced for identical inputs (scoring weights, lane split,
#: checker cost, shedding order, synthesis tie-breaks, serialisation)
#: must bump this — the on-disk strategy cache (:mod:`repro.perf.cache`)
#: keys on it, so a bump invalidates every cached strategy.
PLANNER_VERSION = 2

#: The most plans a strategy may hold. The largest strategies planned
#: anywhere here hold 159 plans (industrial on ``geo:4x40`` at f=1) and
#: 92 (industrial on ``fullmesh:15`` at f=2). Strategies of 988 plans
#: (pipeline on ``fullmesh:20`` at f=3) and 991 (industrial on
#: ``fullmesh:46`` at f=2) plan in 0.6 s and 2.6 s on a 2-core x86 host
#: with Python 3.11; pipeline on ``fullmesh:20`` at f=8 needs 106,762
#: and had not finished after 15 s.
MAX_STRATEGY_PLANS = 1_000


class Strategy:
    """The installed mapping from fault patterns to plans. Never mutated
    after ``__init__``, like the :class:`Plan` objects it holds — which
    is why it may keep its own artifact text and analyzer report."""

    def __init__(self, f: int, plans: Dict[FaultPattern, Plan],
                 covered_nodes: Iterable[str]) -> None:
        self.f = f
        self._plans = dict(plans)
        self.covered_nodes = frozenset(covered_nodes)
        #: The ``strategy_to_json`` text, written by its first call. Only
        #: that encoder fills it: text read from a file may be valid but
        #: not canonical.
        self._artifact: Optional[str] = None
        #: The last :func:`repro.verify.bounds.compute_bounds` report with
        #: the inputs it was computed from, as ``(topology, lane_model,
        #: config, budget, report)``; only that function reads or writes
        #: it.
        self._bounds: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self._plans)

    def patterns(self) -> List[FaultPattern]:
        return sorted(self._plans, key=lambda p: (len(p), sorted(p)))

    def has_plan(self, pattern: FaultPattern) -> bool:
        return pattern in self._plans

    def plan_for(self, fault_set: Iterable[str]) -> Plan:
        """The plan to run given the (append-only) local fault set.

        Exact match when the pattern was anticipated; otherwise degrade
        deterministically: drop uncovered nodes, then trim to the f
        worst (lexicographically first) nodes — every correct node applies
        the same rule, so they converge on the same plan (§4.4).
        """
        pattern = make_pattern(n for n in fault_set
                               if n in self.covered_nodes)
        if len(pattern) > self.f:
            pattern = make_pattern(sorted(pattern)[: self.f])
        plan = self._plans.get(pattern)
        if plan is not None:
            return plan
        # Fall back to the largest anticipated ancestor.
        for size in range(len(pattern) - 1, -1, -1):
            candidates = sorted(
                (p for p in self._plans if len(p) == size and p <= pattern),
                key=sorted,
            )
            if candidates:
                return self._plans[candidates[0]]
        raise KeyError(f"no plan for {sorted(fault_set)}")

    @property
    def nominal(self) -> Plan:
        return self._plans[frozenset()]

    def transition_distance(self, parent: FaultPattern,
                            child: FaultPattern) -> PlanDistance:
        child_plan = self._plans[child]
        parent_plan = self._plans[parent]
        return plan_distance(parent_plan.assignment, child_plan.assignment,
                             child_plan.augmented)

    def max_transition_state_bits(self) -> int:
        """Worst-case state shipped by any single-fault-step transition."""
        worst = 0
        for child in self._plans:
            if not child:
                continue
            for node in child:
                parent = child - {node}
                if parent in self._plans:
                    worst = max(
                        worst,
                        self.transition_distance(parent, child).state_bits,
                    )
        return worst


def build_strategy(
    workload: DataflowGraph,
    topology: Topology,
    f: int,
    lane_model: Optional[LaneModel] = None,
    config: Optional[PlacementConfig] = None,
) -> Strategy:
    """Compute plans for every fault pattern of size ≤ f. Raises
    :class:`PlanningError` if any anticipated pattern is unschedulable even
    after shedding."""
    if f < 0:
        raise ValueError("f must be >= 0")
    if f + 2 > len(topology.nodes):  # placement's refusal, before augment()
        raise PlanningError(
            f"f={f} needs {f + 2} nodes (f + 1 replicas of each task and "
            f"its checker on distinct nodes); the topology has "
            f"{len(topology.nodes)}")
    config = config or PlacementConfig()
    lane_model = lane_model or LaneModel(topology)

    # The failures the strategy anticipates, in canonical order. Nodes
    # that host sources/sinks are not among them: the paper's threat
    # focuses on controllers, not sensors/actuators.
    endpoint_nodes = set(topology.endpoint_map.values())
    candidates = [n for n in sorted(topology.nodes)
                  if n not in endpoint_nodes]
    n_plans = strategy_size(len(candidates), f)
    if n_plans > MAX_STRATEGY_PLANS:
        raise PlanningError(
            f"f={f} over {len(candidates)} eligible nodes needs {n_plans} "
            f"plans, more than the {MAX_STRATEGY_PLANS} a strategy may "
            f"hold")
    ladder = augmented_ladder(workload, AugmentConfig(replicas=f + 1))
    plans: Dict[FaultPattern, Plan] = {}
    for pattern in all_patterns_up_to(candidates, f):
        parent_assignment = None
        if pattern and config.minimize_distance:
            # The deterministic parent: remove the lexicographically last
            # member (it is the most recent addition under sorted pacing).
            parent = pattern - {sorted(pattern)[-1]}
            parent_plan = plans.get(parent)
            if parent_plan is not None:
                parent_assignment = parent_plan.assignment
        plans[pattern] = build_plan(
            workload, pattern, topology, f,
            lane_model=lane_model,
            placement_config=config,
            parent_assignment=parent_assignment,
            ladder=ladder,
        )
    return Strategy(f=f, plans=plans, covered_nodes=candidates)

"""Parallel + memoised strategy construction.

The offline planner is embarrassingly parallel *within* a pattern size:
plans of size k depend only on size-(k-1) plans (distance-minimising
placement seeds each child with its parent's assignment), never on
siblings. :func:`build_strategy_fanout` exploits exactly that structure:

* **Level-synchronous fan-out** — patterns are grouped by size; each
  level is dispatched to a ``concurrent.futures`` process pool and the
  results are merged back *in canonical pattern order* before the next
  level starts. Every per-pattern computation is the same deterministic
  ``build_plan`` call the serial builder makes, with the same parent
  seeding, so the finished strategy serialises byte-identically to the
  serial one for every worker count (the tier-1 suite asserts this).
* **Structural memoisation** — on a node-transitive candidate set (see
  :mod:`repro.perf.symmetry`) one plan per pattern *size* is computed
  and every sibling pattern receives the canonical plan under a node
  renaming, collapsing the ``sum C(n, k)`` cost to ``f + 1`` plans.

Workers receive the (picklable) planning context — the shedding ladder
with each rung's augmented graph included, built once per strategy —
via the pool initializer; per-task traffic is just the pattern and its
parent assignment out, a ``plan_to_dict`` payload back. If a pool cannot be
created (restricted sandboxes, missing semaphores) the builder degrades
to in-process planning and flags it in :class:`PlanningStats` rather
than failing — parallelism here is an optimisation, never a semantic.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.planner.augment import AugmentConfig
from ..core.planner.placement import PlacementConfig
from ..core.planner.plan import Plan, augmented_ladder, build_plan
from ..core.planner.serialize import (
    plan_from_dict,
    plan_to_dict,
    shared_graphs,
)
from ..core.planner.strategy import (
    Strategy,
    StrategyConfig,
    strategy_candidates,
)
from ..faults.patterns import FaultPattern
from ..net.routing import Router
from ..net.topology import Topology
from ..sched.lanes import LaneModel
from ..workload.dataflow import DataflowGraph
from .symmetry import candidates_symmetric, pattern_permutation, rename_plan


@dataclass
class PlanningStats:
    """What one strategy construction cost and how it was satisfied."""

    jobs: int = 1
    plans_total: int = 0
    #: Plans computed from scratch (augment + place + synthesize).
    plans_computed: int = 0
    #: Plans derived by symmetry renaming.
    plans_memoised: int = 0
    #: Whether the candidate set passed the symmetry check.
    symmetric: bool = False
    #: Whether the strategy came out of the on-disk cache.
    cache_hit: bool = False
    cache_key: Optional[str] = None
    #: Corrupt cache entries quarantined during the lookup.
    cache_quarantined: int = 0
    #: Wall-clock planning time (filled by the caller, which owns the
    #: stopwatch — this module never reads the clock).
    wall_s: float = 0.0
    #: True when a worker pool was requested but could not be created.
    pool_fallback: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


# Per-worker planning context, installed once by the pool initializer.
_WORKER_CONTEXT: Optional[Tuple] = None


def _init_worker(context: Tuple) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _plan_task(task: Tuple[Tuple[str, ...], Optional[Dict[str, str]]]
               ) -> dict:
    """Build one pattern's plan in a worker; ships back a plain dict."""
    pattern_nodes, parent_assignment = task
    (workload, topology, router, f, lane_model, placement_config,
     ladder) = _WORKER_CONTEXT
    plan = build_plan(
        workload, frozenset(pattern_nodes), topology, router, f,
        lane_model=lane_model,
        placement_config=placement_config,
        parent_assignment=parent_assignment,
        ladder=ladder,
    )
    return plan_to_dict(plan)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a jobs request: None/0/negative mean "all cores"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _parent_assignment(pattern: FaultPattern,
                       plans: Dict[FaultPattern, Plan],
                       config: StrategyConfig
                       ) -> Optional[Dict[str, str]]:
    """The same deterministic parent seeding the serial builder uses."""
    if not pattern or not config.minimize_distance:
        return None
    parent = pattern - {sorted(pattern)[-1]}
    parent_plan = plans.get(parent)
    return parent_plan.assignment if parent_plan is not None else None


def build_strategy_fanout(
    workload: DataflowGraph,
    topology: Topology,
    router: Router,
    f: int,
    lane_model: Optional[LaneModel] = None,
    config: Optional[StrategyConfig] = None,
    augment_config: Optional[AugmentConfig] = None,
    jobs: int = 1,
    memo: bool = False,
    stats: Optional[PlanningStats] = None,
) -> Strategy:
    """Compute the same strategy as
    :func:`repro.core.planner.strategy.build_strategy`, fanned out over
    ``jobs`` worker processes, optionally memoising symmetric patterns.

    With ``memo=False`` the result is byte-identical (via
    ``strategy_to_json``) to the serial builder for every ``jobs``
    value. With ``memo=True`` the result is byte-identical across
    ``jobs`` values (the memo decision is structural, not scheduling-
    dependent) and is validated by ``repro verify`` like any other
    strategy.
    """
    if f < 0:
        raise ValueError("f must be >= 0")
    config = config or StrategyConfig()
    lane_model = lane_model or LaneModel(topology)
    augment_config = augment_config or AugmentConfig(replicas=f + 1)
    placement_config = config.placement
    jobs = resolve_jobs(jobs)
    candidates = strategy_candidates(topology, config)
    ladder = augmented_ladder(workload, augment_config)
    # Plans shipped back by workers land on the ladder's own graph objects.
    graph_from_dict = shared_graphs(g for rung in ladder for g in rung)
    symmetric = bool(memo) and candidates_symmetric(topology, candidates)
    if stats is not None:
        stats.jobs = jobs
        stats.symmetric = symmetric

    plans: Dict[FaultPattern, Plan] = {}
    executor: Optional[ProcessPoolExecutor] = None
    pool_failed = False

    def compute_direct(patterns: List[FaultPattern]
                       ) -> Dict[FaultPattern, Plan]:
        """Build the given same-level patterns, possibly in parallel;
        results keyed by pattern, independent of completion order."""
        nonlocal executor, pool_failed
        tasks = [
            (tuple(sorted(p)), _parent_assignment(p, plans, config))
            for p in patterns
        ]
        if jobs > 1 and len(tasks) > 1 and not pool_failed:
            if executor is None:
                context = (workload, topology, router, f, lane_model,
                           placement_config, ladder)
                try:
                    executor = ProcessPoolExecutor(
                        max_workers=jobs,
                        initializer=_init_worker,
                        initargs=(context,),
                    )
                except (OSError, ValueError, ImportError):
                    pool_failed = True
                    if stats is not None:
                        stats.pool_fallback = True
            if executor is not None:
                futures = [executor.submit(_plan_task, t) for t in tasks]
                return {
                    p: plan_from_dict(fut.result(), graph_from_dict)
                    for p, fut in zip(patterns, futures)
                }
        return {
            p: build_plan(
                workload, p, topology, router, f,
                lane_model=lane_model,
                placement_config=placement_config,
                parent_assignment=assignment,
                ladder=ladder,
            )
            for p, (_, assignment) in zip(patterns, tasks)
        }

    try:
        for size in range(f + 1):
            level = [frozenset(combo) for combo in
                     itertools.combinations(candidates, size)]
            if not level:
                continue
            if symmetric and size >= 1:
                canonical = level[0]
                computed = compute_direct([canonical])
                plans[canonical] = computed[canonical]
                for pattern in level[1:]:
                    sigma = pattern_permutation(candidates, canonical,
                                                pattern)
                    plans[pattern] = rename_plan(plans[canonical], sigma,
                                                 topology)
                if stats is not None:
                    stats.plans_computed += 1
                    stats.plans_memoised += len(level) - 1
            else:
                computed = compute_direct(level)
                for pattern in level:
                    plans[pattern] = computed[pattern]
                if stats is not None:
                    stats.plans_computed += len(level)
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    if stats is not None:
        stats.plans_total = len(plans)
    return Strategy(f=f, plans=plans, covered_nodes=set(candidates))

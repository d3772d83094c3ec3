"""The check campaign: cells fanned out over workers, results merged.

The campaign is the unit ``repro check`` runs: build the cell list
(adversary choices × injection ticks, plus the nominal cell), explore
each cell's delivery subtree, minimise and replay-confirm the first
violating path per cell, and merge everything into one report.

**Byte-reproducibility.** The merged report is a pure function of
(workload, topology, config, params): cells are built in sorted order,
each cell's subtree is explored by the same deterministic BFS whichever
process runs it (fault behaviours derive their RNG from the seed and
the cell alone, never from worker identity), visited sets are scoped
per cell, and results are merged in cell order regardless of completion
order. ``--workers 4`` therefore serialises byte-identically to
``--workers 1`` — the tests assert it. Wall-clock figures live in the
separate :class:`CheckStats`, never in the report.

**Parallelism is an optimisation, never a semantic**
(:class:`~repro.perf.pool.WorkerPool`): a pool that cannot be created or
kept degrades to in-process exploration, flagged ``pool_fallback``.
:func:`prepare_campaign` is the preamble every search campaign shares,
and its prepared system is the one the pool's workers are forked with
(docs/PERFORMANCE.md, "Search loop").
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import List, Optional, Tuple

from ..core.runtime.system import BTRSystem
from ..perf.pool import WorkerPool
from ..perf.timing import Stopwatch
from ..faults.adversary import BEHAVIORS
from .choices import Cell, cell_script, injection_ticks
from .counterexample import confirm_replay, counterexample_to_dict
from .explorer import explore_cell
from .invariants import static_mode_findings
from .judge import first_violating_prefix, judge

#: Bumped when the merged report layout changes incompatibly.
MC_REPORT_VERSION = 1


@dataclass(frozen=True)
class SearchParams:
    """The bounds both searches take — ``check``'s cells and ``fuzz
    campaign``'s scripts; frozen so a campaign ships it to workers and
    into its report verbatim. A bad value raises ``ValueError`` on
    construction, before anything is prepared."""

    #: Fault kinds the adversary may pick (``BEHAVIORS`` names).
    kinds: Tuple[str, ...]
    #: Injection window in periods: faults land in
    #: ``[window[0] * P, window[1] * P]``.
    window: Tuple[float, float] = (2.0, 3.0)
    #: Injection ticks sampled evenly across the window
    #: (:func:`~repro.mc.choices.injection_ticks`).
    ticks: int = 2
    #: Simulated periods per run; 0 auto-sizes so the latest injection
    #: plus one recovery budget per possible injection fits before the
    #: run ends.
    n_periods: int = 0
    #: Recovery bound to check, µs; None means the prepared budget.
    R_us: Optional[int] = None
    #: Definition 3.1 adversary strength multiplier (bound is ``k * R``).
    k: int = 1
    #: Worker processes (an execution detail, kept out of the report).
    workers: int = 1
    #: Seed every fault-behaviour RNG fork and candidate genome derives
    #: from.
    seed: int = 0

    def __post_init__(self) -> None:
        unknown = sorted(set(self.kinds) - set(BEHAVIORS))
        if not self.kinds or unknown:
            raise ValueError(f"kinds must name registered fault kinds, "
                             f"got {list(self.kinds)!r}")
        lo, hi = self.window
        if not 0 <= lo <= hi < math.inf:
            raise ValueError(f"injection window must satisfy "
                             f"0 <= LO <= HI < inf, got {lo:g} {hi:g}")
        for name in ("ticks", "k", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_periods < 0:
            raise ValueError(f"n_periods must be >= 0, got {self.n_periods}")
        if self.R_us is not None and self.R_us <= 0:
            raise ValueError(f"R_us must be > 0, got {self.R_us}")

    def report_params(self) -> dict:
        """The report's ``params``: every field but the execution-only
        ``workers``, which changes how a campaign runs, never what it
        reports."""
        payload = asdict(self)
        del payload["workers"]
        return payload


@dataclass(frozen=True)
class CheckParams(SearchParams):
    """A check campaign's bounds: the shared :class:`SearchParams` plus
    the delivery-schedule search."""

    kinds: Tuple[str, ...] = ("crash", "commission")
    #: Max delivery perturbations along one path.
    max_depth: int = 2
    #: Max candidate perturbations expanded per path.
    branch: int = 3
    #: Extra delay applied by each perturbation, µs.
    delay_quantum_us: int = 2000
    #: Per-cell path cap; exceeding it marks the cell truncated (and the
    #: campaign uncertified).
    max_paths: int = 400
    #: Sleep-set pruning of commuting deliveries.
    prune: bool = True
    #: Explore the fault-free cell too.
    include_fault_free: bool = True


@dataclass
class SearchStats:
    """Wall-clock figures, kept out of the byte-compared report (its
    counts — paths, evaluated scripts — are in the report)."""

    workers: int = 1
    pool_fallback: bool = False
    wall_s: float = 0.0


@dataclass
class CheckStats(SearchStats):
    #: Share of the explored paths' simulated time that each path has in
    #: common with its parent (Σ base arrival of the first perturbed
    #: delivery ÷ Σ ``n_periods × period``): the ceiling on what a free
    #: snapshot-and-fork of the simulator could skip.
    shared_prefix_share: float = 0.0


def build_cells(victims: List[str], period: int,
                params: CheckParams) -> List[Cell]:
    """The campaign's top-level choice space, in deterministic order."""
    cells: List[Cell] = []
    if params.include_fault_free:
        cells.append(Cell())
    times = injection_ticks(period, params.window, params.ticks)
    for victim in sorted(victims):
        for kind in sorted(params.kinds):
            for inject_at in times:
                cells.append(Cell(victim, kind, inject_at))
    return cells


def prepare_campaign(workload, topology, config, params: SearchParams,
                     recoveries: int = 1):
    """The preamble of every search campaign: ``(system, resolved)``.

    Forces milestone traces (every event the invariants, timelines,
    coverage map and state abstraction read, at a fraction of full-mode
    volume), prepares the system, defaults ``R_us`` to the prepared
    budget, and auto-sizes the horizon so the latest injection plus
    ``recoveries`` recovery budgets and a settling period fit inside the
    run — agreement at end-of-run is then meaningful unconditionally.
    """
    system = BTRSystem(workload, topology,
                       replace(config, trace_mode="milestones"))
    system.prepare()
    period = workload.period
    budget_us = system.budget.total_us
    window_end_us = int(params.window[1] * period)
    min_periods = math.ceil(
        (window_end_us + recoveries * budget_us) / period) + 1
    resolved = replace(
        params,
        R_us=budget_us if params.R_us is None else params.R_us,
        n_periods=max(params.n_periods, min_periods))
    return system, resolved


def _explore_one(system, cell: Cell, *, params: CheckParams,
                 meta: Optional[dict]) -> dict:
    """One cell end-to-end: explore, then minimise + replay-confirm the
    first violating path (if any). Runs identically in-process or in a
    worker."""
    report = explore_cell(system, cell, params)
    payload = report.to_dict()
    # Stats-only: run_campaign pops it before the payload joins the
    # byte-compared report.
    payload["shared_prefix_us"] = report.shared_prefix_us
    if report.violating:
        # BFS found a shortest violating *schedule*; its shortest
        # violating prefix is where the violation first manifests (often
        # the empty schedule, when the fault alone breaks the bound).
        def violations_of(prefix):
            return judge(system, cell_script(cell, params.seed), prefix,
                         n_periods=params.n_periods, R_us=params.R_us,
                         k=params.k)[1]

        schedule, known = report.violating[0]
        minimised, violations = first_violating_prefix(
            schedule, violations_of, known=known)
        artifact = counterexample_to_dict(
            cell, minimised, violations,
            script=cell_script(cell, params.seed),
            n_periods=params.n_periods, R_us=params.R_us,
            k=params.k, seed=params.seed, meta=meta)
        confirm_replay(system, artifact)
        payload["counterexample"] = artifact
    return payload


def run_campaign(workload, topology, config,
                 params: Optional[CheckParams] = None,
                 meta: Optional[dict] = None
                 ) -> Tuple[dict, CheckStats]:
    """Run one bounded model-checking campaign.

    Returns ``(report, stats)``: the report is deterministic and
    byte-comparable across worker counts; the stats carry wall-clock
    figures (wall time, pool fallback) for the benchmark layer.
    """
    watch = Stopwatch()
    system, resolved = prepare_campaign(workload, topology, config,
                                        params or CheckParams())
    period = workload.period

    static = static_mode_findings(system.strategy, topology)
    cells: List[Cell] = []
    if not static:
        cells = build_cells(system.compromisable_nodes(), period,
                            resolved)

    pool = WorkerPool(partial(_explore_one, params=resolved, meta=meta),
                      system, workers=resolved.workers)
    stats = CheckStats(workers=pool.workers)
    with pool:
        results = list(pool.map(cells))
    stats.pool_fallback = pool.fallback
    shared_prefix_us = sum(p.pop("shared_prefix_us") for p in results)

    totals = {
        "cells": len(results),
        "paths": sum(r["paths"] for r in results),
        "distinct_states": sum(r["distinct"] for r in results),
        "dedup_hits": sum(r["dedup_hits"] for r in results),
        "pruned": sum(r["pruned"] for r in results),
        "violating_paths": sum(len(r["violating"]) for r in results),
        "truncated_cells": sum(1 for r in results if r["truncated"]),
    }
    certified = (not static
                 and totals["violating_paths"] == 0
                 and totals["truncated_cells"] == 0)
    report = {
        "version": MC_REPORT_VERSION,
        "meta": dict(meta or {}),
        "params": resolved.report_params(),
        "budget_us": system.budget.total_us,
        "static_violations": [v.to_dict() for v in static],
        "cells": results,
        "totals": totals,
        "certified": certified,
    }
    if totals["paths"]:
        stats.shared_prefix_share = shared_prefix_us / (
            totals["paths"] * resolved.n_periods * period)
    stats.wall_s = watch.elapsed_s()
    return report, stats

"""Bounded exploration of one cell's delivery-ordering subtree.

Stateless search: every node of the tree is one full simulator run under
the cell's fault script plus a delivery schedule (strictly increasing
indices, see :mod:`repro.mc.choices`). Breadth-first, so the first
violating schedule found is also a shortest one — minimisation then only
has to shrink it to the violating *prefix*.

Two mechanisms keep the frontier tractable:

**State-hash deduplication.** Each path is reduced to the abstraction
the invariants actually consume — the slot-verdict table, fault times,
the mode-switch sequence, and every node's final (mode, fault set) —
and hashed with ``trace_fingerprint``. Two paths with equal hashes get
identical verdicts from :func:`~repro.mc.invariants.check_path` *by
construction* (the verdict is a pure function of the hashed data), so a
duplicate is counted and not expanded. Visited sets are scoped per cell
and never leave the process, respecting ``trace_fingerprint``'s
same-process validity contract and making results independent of how
cells are partitioned across workers.

**Sleep-set pruning of commuting deliveries.** A candidate perturbation
that provably cannot change the per-receiver delivery order — no other
delivery to the same receiver lands inside the delay window, and the
window stays within one workload period (so no output deadline is
crossed) — is skipped and counted. This is the classic independence
argument at per-receiver granularity; the period-boundary condition is
conservative cover for the timing dimension. ``prune=False`` explores
such branches anyway (the tests compare the two verdict sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.correctness import classify_slots
from ..sim.trace import ModeSwitchCompleted, trace_fingerprint
from .choices import Cell, DeliveryChoice, cell_script
from .hooks import ObservedDelivery
from .judge import judge


def state_fingerprint(result) -> str:
    """Hash of the invariant-relevant abstraction of one path.

    The preimage is exactly the data :func:`check_path` reads: slot
    verdicts (flow, period, status, excused), injected fault times, the
    (node, mode) mode-switch sequence, and each node's final state.
    Event timestamps inside a period slot are deliberately absent — a
    delivery perturbation that shifts timing without changing any
    verdict-relevant fact collapses onto its parent state.
    """
    slots = tuple(
        (s.flow, s.period_index, s.status, s.excused)
        for s in classify_slots(result)
    )
    faults = tuple(sorted(result.fault_times().items()))
    switches = tuple(
        (e.node, e.mode)
        for e in result.trace.of_kind(ModeSwitchCompleted)
    )
    final = tuple(
        (node, result.final_modes[node],
         tuple(sorted(result.final_fault_sets[node])))
        for node in sorted(result.final_modes)
    )
    return trace_fingerprint([
        ("slots", slots), ("faults", faults),
        ("switches", switches), ("final", final),
    ])


def _perturb_window(cell: Cell, period: int) -> Tuple[int, int]:
    """The arrival window whose deliveries are worth perturbing: around
    the injection for fault cells, the first periods for the nominal
    cell (steady state repeats — later periods add no new orderings
    within the bounded abstraction)."""
    if cell.fault_free:
        return (0, 2 * period)
    return (max(0, cell.inject_at - period), cell.inject_at + 2 * period)


def _commutes(candidate: ObservedDelivery, delay: int,
              observed: List[ObservedDelivery], period: int) -> bool:
    """True when delaying ``candidate`` by ``delay`` provably preserves
    the per-receiver delivery order and stays inside one period slot."""
    index, _, receiver, arrival = candidate
    delayed = arrival + delay
    if arrival // period != delayed // period:
        return False
    for other_index, _, other_receiver, other_arrival in observed:
        if other_index == index or other_receiver != receiver:
            continue
        if arrival < other_arrival <= delayed:
            return False
    return True


def _candidates(cell: Cell, observed: List[ObservedDelivery],
                last_index: int, *, period: int, branch: int
                ) -> List[ObservedDelivery]:
    """Deterministic branch selection: deliveries after the last
    perturbed index whose base arrival falls in the cell's window,
    stride-sampled down to at most ``branch`` per expansion."""
    lo, hi = _perturb_window(cell, period)
    pool = [
        point for point in observed
        if point[0] > last_index and lo <= point[3] < hi
    ]
    if len(pool) <= branch:
        return pool
    step = len(pool) // branch
    return pool[::step][:branch]


@dataclass
class CellReport:
    """The outcome of exhausting one cell's bounded subtree."""

    cell: Cell
    paths: int = 0
    distinct: int = 0
    dedup_hits: int = 0
    pruned: int = 0
    truncated: bool = False
    #: (schedule, violations) per violating path, in BFS order.
    violating: Optional[list] = None
    #: Σ over explored paths of the simulated time each shares with its
    #: parent: the base arrival of the delivery it perturbs first (0 for
    #: the root). A host-side figure — what a free snapshot-and-fork
    #: could skip — so it stays out of :meth:`to_dict`.
    shared_prefix_us: int = 0

    def to_dict(self) -> dict:
        return {
            "cell": self.cell.to_dict(),
            "paths": self.paths,
            "distinct": self.distinct,
            "dedup_hits": self.dedup_hits,
            "pruned": self.pruned,
            "truncated": self.truncated,
            "violating": [
                {"deliveries": [list(c) for c in schedule],
                 "violations": [v.to_dict() for v in violations]}
                for schedule, violations in (self.violating or [])
            ],
        }


def explore_cell(system, cell: Cell, params) -> CellReport:
    """Exhaust one cell's subtree up to the configured bounds.

    ``params`` carries the bounds (``max_depth``, ``branch``,
    ``delay_quantum_us``, ``prune``, per-cell ``max_paths``) plus the
    run shape (``n_periods``, ``R_us``, ``k``, ``seed``) — see
    :class:`~repro.mc.campaign.CheckParams`.
    """
    period = system.workload.period
    lo, hi = _perturb_window(cell, period)
    # The hook records only what _candidates ([lo, hi)) and _commutes
    # (arrivals up to a candidate's delayed time) read.
    window = (lo, hi + params.delay_quantum_us)
    report = CellReport(cell=cell, violating=[])
    visited: set = set()
    #: (schedule, time shared with the parent path).
    frontier: List[Tuple[Tuple[DeliveryChoice, ...], int]] = [((), 0)]
    while frontier:
        if report.paths >= params.max_paths:
            report.truncated = True
            break
        schedule, shared_us = frontier.pop(0)
        result, violations, observed = judge(
            system, cell_script(cell, params.seed), schedule,
            n_periods=params.n_periods, R_us=params.R_us, k=params.k,
            window=window)
        fingerprint = state_fingerprint(result)
        report.paths += 1
        report.shared_prefix_us += shared_us
        if fingerprint in visited:
            report.dedup_hits += 1
            continue
        visited.add(fingerprint)
        if violations:
            report.violating.append((schedule, violations))
            continue  # don't search beyond a broken state
        if len(schedule) >= params.max_depth:
            continue
        last_index = schedule[-1][0] if schedule else -1
        for candidate in _candidates(cell, observed, last_index,
                                     period=period,
                                     branch=params.branch):
            delay = params.delay_quantum_us
            if params.prune and _commutes(candidate, delay,
                                          observed, period):
                report.pruned += 1
                continue
            frontier.append((schedule + ((candidate[0], delay),),
                             candidate[3]))
    report.distinct = len(visited)
    return report


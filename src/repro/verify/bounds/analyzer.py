"""The Layer-4 static analyzer: per-(fault-class, mode) recovery bounds.

Given only the *prepared artifacts* — the strategy (plans, routes,
schedules, mode graph), the topology, the lane schedule and the runtime
config — :func:`compute_bounds` derives, for every mode the deployment
can be in and every fault class it can suffer there, a worst-case bound
on each recovery phase of the taxonomy
:meth:`repro.obs.recovery.reconstruct_timelines` measures:

``detect``
    one full period for the fault to surface at a checker or an arrival
    window, plus the worst planned arrival offset, the timing slacks and
    (for silence faults) the omission grace wait — plus, with ``f >= 2``,
    the post-switch confusion window during which omission/timing
    detection is deliberately suppressed;
``convict``
    forgery faults self-incriminate: one control-lane validation. Silence
    faults are convicted by blame accumulation, which this module models
    *plan-aware*: the declarations a silent victim provokes are exactly
    the planned flow copies routed through it, so the periods until the
    ``DEFAULT_SLOT_THRESHOLD`` bar (and the single-adjacency escalation,
    and strict dominance over co-charged route nodes) are computed from
    the mode's own route table — see :func:`conviction_profile`;
``quorum``
    evidence flood depth over the surviving topology × (per-hop
    transmission + propagation + control-lane verification);
``switch``
    the switch lead (the budget's distribution bound) plus boundary
    alignment to the next period start;
``settle`` / ``residual``
    one period of pipeline refill plus the worst state transfer of the
    specific mode transition the fault forces.

All arithmetic is integer microseconds (the ``float-time-arithmetic``
lint rule guards this package); the handful of float *inputs* (lane
speeds, drift ppm) are scaled up front through :func:`_milli`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ...core.detector.omission import (
    DEFAULT_MIN_DECLARERS,
    DEFAULT_SLOT_THRESHOLD,
    OMISSION_GRACE_US,
)
from ...core.detector.timing import DEFAULT_TIMING
from ...core.modes.switcher import SUPPRESS_PERIODS
from ...core.planner import naming
from ...core.planner.plan import Plan
from ...core.planner.strategy import Strategy
from ...core.runtime.budget import EVIDENCE_BITS
from ...core.runtime.config import BTRConfig
from ...crypto.costs import VERIFY_US
from ...net.topology import Topology
from ...obs.recovery import PHASES
from ...sched.lanes import LaneModel
from ...sim.clock import CLOCK_SYNC_INTERVAL_US
from ...sim.message import MessageKind
from .model import FAULT_CLASSES, BoundsReport, ClassBound


def _milli(value: float) -> int:
    """A float input scaled to integer thousandths, rounded down."""
    return int(value * 1000)  # lint: ignore[float-time-arithmetic]


def _ceil_div(num: int, den: int) -> int:
    return -(-num // max(den, 1))


@dataclass(frozen=True)
class ConvictionProfile:
    """How the blame tracker convicts one silent victim, statically."""

    #: Distinct (path, declarer) slot keys charged per period.
    slots_per_period: int
    #: Distinct declarer nodes across the charged copies.
    declarers: int
    #: Highest per-period slot count of any co-charged node.
    co_charged_max: int
    #: True when one common neighbour sits next to the victim on every
    #: charged path (the link-vs-node excuse applies).
    single_adjacency: bool
    #: Periods of accumulation until attribution is guaranteed; None
    #: when attribution is statically unreachable.
    periods: Optional[int]
    #: Why attribution is unreachable (when ``periods`` is None).
    reason: str = ""


def _declaration_guaranteed(plan: Plan, copy_name: str,
                            victim: str) -> bool:
    """Is the consumer of ``copy_name`` *guaranteed* to declare when the
    copy goes missing?  The runtime's producer-starved excuse
    (:meth:`Agent._producer_starved`) withholds declarations whose
    producer provably had nothing to send, so the static conviction
    model may only count copies the excuse can never swallow:

    * audit copies (``@a``) are excused whenever their producer is a
      task with any task-fed input — the sink cannot audit the
      producer's own inputs, so it conservatively stays silent;
    * replica-output copies (``task!rK``) are excused when the checker's
      own audit copy of the producer's input edge is itself missing —
      statically, when that ``@c`` route also transits the victim;
    * every other copy kind is never excusable.
    """
    if "@a" in copy_name:
        try:
            flow = plan.workload.flow(naming.base_flow(copy_name))
        except KeyError:
            return True
        if flow.src not in plan.workload.tasks:
            return True  # host-sourced audit edge: nothing to starve
        return not any(inp.src in plan.workload.tasks
                       for inp in plan.workload.inputs_of(flow.src))
    if naming.is_replica_output_flow(copy_name):
        base_task, _index = naming.replica_output_parts(copy_name)
        for inp in plan.workload.inputs_of(base_task):
            if inp.src not in plan.workload.tasks:
                continue  # source-host edges have no checker to die
            c_route = plan.routes.get(
                naming.flow_copy_name(inp.name, "c"))
            if c_route is None or victim in c_route:
                return False
        return True
    return True


def conviction_profile(plan: Plan, victim: str) -> ConvictionProfile:
    """Statically replay the blame-attribution rules for one victim.

    A silent ``victim`` breaks exactly the planned flow copies whose
    route passes through it; each broken copy *may* yield one
    declaration per period from its consumer (the declarer), charging
    every path node except the declarer — the same slot keys
    :class:`~repro.core.detector.omission.BlameTracker` accumulates.
    Only declarations the producer-starved excuse can never withhold are
    counted (:func:`_declaration_guaranteed`); this is conservative in
    every direction that matters, because any *extra* declaration that
    does materialize charges the victim (who is on every charged path)
    at least as much as any rival, so dominance and the threshold can
    only be reached sooner than modelled.
    """
    charged: List[Tuple[Tuple[str, ...], str]] = []
    for copy_name, route in plan.routes.items():
        if len(route) < 2:
            continue  # local flow: consumer is co-hosted, nobody declares
        declarer = route[-1]
        if victim not in route or declarer == victim:
            continue
        if not _declaration_guaranteed(plan, copy_name, victim):
            continue
        charged.append((tuple(route), declarer))

    slot_keys = set(charged)
    declarers = {declarer for _path, declarer in slot_keys}
    slots = len(slot_keys)
    if slots == 0:
        return ConvictionProfile(
            0, 0, 0, False, None,
            "no planned flow copy routes through the victim, so a "
            "silent fault provokes no declarations")
    if len(declarers) < DEFAULT_MIN_DECLARERS:
        return ConvictionProfile(
            slots, len(declarers), 0, False, None,
            f"only {len(declarers)} distinct declarer(s); attribution "
            f"needs {DEFAULT_MIN_DECLARERS} (the paper's "
            "single-counterparty omission corner, E9)")

    # Co-charges: every non-declarer node on a charged path accumulates
    # the same slot keys; the victim must strictly dominate all of them.
    co_counts: Dict[str, int] = {}
    for path, declarer in slot_keys:
        for node in path:
            if node in (victim, declarer):
                continue
            co_counts[node] = co_counts.get(node, 0) + 1
    co_max = max(co_counts.values(), default=0)
    if co_max >= slots:
        rival = min(n for n, c in co_counts.items() if c == co_max)
        return ConvictionProfile(
            slots, len(declarers), co_max, False, None,
            f"co-charged node {rival} accrues {co_max} slot(s) per "
            f"period against the victim's {slots}: strict dominance "
            "never holds and the tracker withholds attribution")

    # Single-adjacency excuse: intersect the victim's path neighbours.
    common: Optional[FrozenSet[str]] = None
    for path, _declarer in slot_keys:
        idx = path.index(victim)
        adjacent = set()
        if idx > 0:
            adjacent.add(path[idx - 1])
        if idx + 1 < len(path):
            adjacent.add(path[idx + 1])
        common = (frozenset(adjacent) if common is None
                  else common & adjacent)
        if not common:
            break
    single_adjacency = bool(common)

    periods = _ceil_div(DEFAULT_SLOT_THRESHOLD, slots)
    if single_adjacency:
        # The tracker escalates an excused suspect only once its charges
        # span threshold+2 distinct periods (alive evader) or reach
        # threshold+2 slots while its life signal is stale (dead node);
        # threshold+2 charged periods satisfies whichever branch applies.
        periods = max(periods, DEFAULT_SLOT_THRESHOLD + 2)
    return ConvictionProfile(slots, len(declarers), co_max,
                             single_adjacency, periods)


def _evidence_hop_us(topology: Topology,
                     lane_model: LaneModel) -> Tuple[int, int, int]:
    """(worst per-hop wire time, per-node *evidence* validation time,
    per-node *declaration* validation time), integer µs. Evidence
    records carry up to six signed statements; a relayed declaration is
    a single signature — both run on the reserved control CPU slice,
    whose share is the slowest node's ctrl-lane speed."""
    worst_hop = 0
    for link in topology.links.values():
        tx = lane_model.transmission_us(link, MessageKind.EVIDENCE,
                                        EVIDENCE_BITS)
        worst_hop = max(worst_hop, tx + link.propagation_us)
    speeds = [_milli(node.lanes["ctrl"].speed)
              for node in topology.nodes.values()]
    min_speed = min(speeds, default=1000)
    verify = _ceil_div(VERIFY_US * 6 * 1000, max(min_speed, 1))
    decl_verify = _ceil_div(VERIFY_US * 1000, max(min_speed, 1))
    return worst_hop, verify, decl_verify


def _min_state_rate_milli(topology: Topology,
                          lane_model: LaneModel) -> int:
    """The slowest STATE lane of the deployment, in milli-bits per µs."""
    rates = [_milli(lane_model.rate_bits_per_us(link, MessageKind.STATE))
             for link in topology.links.values()]
    return max(min(rates, default=1000), 1)


def _drift_eps_us(config: BTRConfig) -> int:
    """Worst clock skew between sync rounds, rounded up to whole µs."""
    ppm = int(config.clock_drift_ppm) + 1
    return _ceil_div(CLOCK_SYNC_INTERVAL_US * ppm, 1_000_000)


def _silence_masking(plan: Plan,
                     topology: Topology) -> Callable[[str], bool]:
    """The predicate "this victim's silence cannot disrupt outputs by
    itself" for one plan, established by evaluating the plan's replicated
    dataflow with the victim removed: a stage still *works* when its
    checker is off the victim and at least one replica (a) is hosted
    elsewhere, (b) receives every input on a victim-free route from a
    working upstream stage, and (c) reaches its checker on a victim-free
    route; every sink flow must then arrive from a working stage over a
    victim-free ``@out`` route. Conviction being unreachable is then
    benign — no recovery is needed, so no bound is either. Audit copies
    deliberately don't count as masking (they inform detection, not
    actuation).

    Where each stage's replicas sit, which nodes their routes cross, and
    which hosts carry some exotic singleton role depend on the plan alone
    and are worked out here, once, not per victim. A victim is then judged
    stage by stage in dependency order (a dataflow graph is a DAG), so
    every upstream verdict is known before its consumers are judged."""
    workload = plan.workload
    assignment = plan.assignment

    def route_nodes(copy_name: str) -> Set[str]:
        return set(plan.routes.get(copy_name) or ())

    # task -> [(replica host, every node on its input and output routes)]
    replicas: Dict[str, List[Tuple[str, Set[str]]]] = {}
    exotic_hosts = set()
    for inst, host in assignment.items():
        index = naming.replica_index(inst)
        if index is not None:
            task = naming.base_task(inst)
            crossed = route_nodes(naming.replica_output_flow(task, index))
            for inp in workload.inputs_of(task):
                crossed |= route_nodes(
                    naming.flow_copy_name(inp.name, f"r{index}"))
            replicas.setdefault(task, []).append((host, crossed))
        elif not naming.is_checker(inst):
            exotic_hosts.add(host)  # assume its silence is disruptive
    stages = [(task, assignment.get(naming.checker_name(task)),
               [inp.src for inp in workload.inputs_of(task)
                if inp.src in workload.tasks],
               replicas.get(task, ()))
              for task in workload.topological_order()]
    sinks = [(topology.endpoint_map.get(flow.dst), flow.src,
              route_nodes(naming.flow_copy_name(flow.name, "out")))
             for flow in workload.sink_flows()]

    def maskable(victim: str) -> bool:
        if victim in exotic_hosts:
            return False
        working: Dict[str, bool] = {}
        for task, checker_host, upstream, stage_replicas in stages:
            working[task] = (
                checker_host != victim
                and all(working[src] for src in upstream)
                and any(host != victim and victim not in crossed
                        for host, crossed in stage_replicas))
        # A sink whose only consumer died with the victim needs nothing.
        return all(consumer == victim
                   or (working.get(src, True) and victim not in crossed)
                   for consumer, src, crossed in sinks)

    return maskable


def compute_bounds(strategy: Strategy, topology: Topology,
                   lane_model: LaneModel, config: BTRConfig,
                   budget=None) -> BoundsReport:
    """Derive the per-(fault-class, mode) worst-case recovery bounds.

    ``budget`` is the deployment's :class:`RecoveryBudget` when the
    caller already computed one (``prepare()`` did). Besides the report's
    budget/R columns, the bounds read only its distribution bound, which
    is the runtime's switch lead; no bound reads a budget total, which is
    what makes the cross-validation in :mod:`.soundness` meaningful.

    The strategy keeps the last report: asked again with the same
    topology and lane model objects and an equal config and budget (as
    ``prepare(strict=True)``'s ``bound.*`` rules and then the caller
    ask), this returns that report object; any other inputs compute a
    fresh report, which the strategy keeps instead.
    """
    held = strategy._bounds
    if (held is not None and held[0] is topology and held[1] is lane_model
            and held[2] == config and held[3] == budget):
        return held[4]
    inputs = (topology, lane_model, config, budget)
    router = topology.router
    if budget is None:
        from ...core.runtime.budget import compute_budget
        budget = compute_budget(strategy, topology, lane_model)
    period = strategy.nominal.workload.period
    # Per topology: the evidence hop, the slowest STATE lane, the node
    # list. The flood depth is the topology router's diameter over the
    # survivors, which the router keeps per faulty set.
    hop, verify, decl_verify = _evidence_hop_us(topology, lane_model)
    state_rate = _min_state_rate_milli(topology, lane_model)
    node_ids = topology.node_ids()
    lead = budget.distribution_us
    drift = _drift_eps_us(config)
    slack = DEFAULT_TIMING.slack_us
    arrival_slack = DEFAULT_TIMING.arrival_slack_us
    grace = OMISSION_GRACE_US

    entries: List[ClassBound] = []
    for pattern in strategy.patterns():
        if len(pattern) >= strategy.f:
            continue  # terminal modes have no further recovery to bound
        plan = strategy.plan_for(pattern)
        mode = plan.mode
        max_arrival = max((a for a in plan.schedule.arrivals.values()
                           if a is not None), default=period)
        max_arrival = min(max(max_arrival, 0), period)
        victims = [v for v in node_ids
                   if v not in pattern
                   and strategy.has_plan(frozenset(pattern) | {v})]
        if not victims:
            continue

        per_class: Dict[str, Dict[str, int]] = {
            c: {p: 0 for p in PHASES} for c in FAULT_CLASSES}
        worst_victim: Dict[str, Tuple[int, str]] = {}
        unachievable: Dict[str, str] = {}
        victim_totals: Dict[str, Dict[str, int]] = {
            c: {} for c in FAULT_CLASSES}
        silence_maskable = _silence_masking(plan, topology)

        for victim in victims:
            faulty = pattern | {victim}
            depth = router.diameter(faulty)
            if depth is None:
                # Survivors cut off from each other: their count is a
                # safe over-estimate of the flood depth.
                depth = sum(n not in faulty for n in node_ids)
            depth = max(depth, 1)
            flood = depth * (hop + verify)
            decl_flood = depth * (hop + decl_verify)
            # Worst-case state transfer of this specific mode transition.
            transfer = _ceil_div(
                strategy.transition_distance(pattern, faulty).state_bits
                * 1000, state_rate)
            settle = period + transfer + arrival_slack
            # With f >= 2 a fault can land inside the previous
            # recovery's post-switch confusion window, during which
            # omission/timing detection is suppressed (mirrors the
            # budget's confusion term).
            confusion = (SUPPRESS_PERIODS * period + settle
                         if strategy.f >= 2 else 0)

            profile = conviction_profile(plan, victim)
            maskable = silence_maskable(victim)
            if profile.periods is None:
                if not maskable:
                    unachievable[victim] = profile.reason
                convict_silence = None
            else:
                # A fault landing mid-period splits the first charge
                # round across a period boundary: the copies checked
                # after the fault charge immediately, the rest only with
                # the next period's checks — so the span from the first
                # charge to the threshold needs a full extra period on
                # top of the accumulation periods, plus the intra-period
                # check spread. Conviction itself is the attribution
                # *generation* at whichever tracker reaches the bar
                # first — that node accepts its own record instantly, so
                # the convict span pays only the relay of the final
                # declarations (one signature check per hop), never the
                # six-statement evidence flood (``quorum`` pays that).
                convict_silence = (profile.periods * period
                                   + max_arrival + decl_flood
                                   + arrival_slack + drift)
            # Forgery conviction is the evidence *generation*, which is
            # the same validation event as the first charge — the span
            # between them is at most one validation window (the
            # receiver-side verification cost belongs to the flood and
            # is bounded inside ``quorum``). A mixed fault whose charge
            # arrives as a declaration first still convicts at the next
            # validation, one period later at worst.
            convict_forgery = period + arrival_slack + drift

            phase_sets: Dict[str, Dict[str, Optional[int]]] = {
                "silence": {
                    "detect": (period + max_arrival + arrival_slack
                               + grace + drift + confusion),
                    "convict": convict_silence,
                    # Per-node acceptance runs on the reserved control
                    # CPU slice, serialized behind up to one period of
                    # queued declaration/validation work (the admission
                    # quotas cap the slice's per-period load, so the
                    # backlog drains every period).
                    "quorum": flood + arrival_slack + drift + period,
                },
                "forgery": {
                    "detect": (period + max_arrival + arrival_slack
                               + drift + confusion),
                    "convict": convict_forgery,
                    "quorum": flood + arrival_slack + drift + period,
                },
                "timing": {
                    # A mistimed copy either arrives past the tolerance
                    # (timestamp evidence at its actual arrival, which
                    # is before the omission check by construction) or
                    # not at all (the omission check declares at the
                    # grace deadline) — so the later of the two regimes
                    # is exactly the silence detect window. ``grace``
                    # dominates ``slack`` here because the check fires
                    # at the grace deadline whether or not traffic
                    # eventually shows up.
                    "detect": (period + max_arrival + arrival_slack
                               + max(grace, slack) + drift
                               + confusion),
                    # A timing fault may self-incriminate (gross offset)
                    # or need blame accumulation (indefinitely withheld
                    # traffic is indistinguishable from omission): bound
                    # by the worse regime. For a *maskable* victim the
                    # withholding regime needs no recovery at all — only
                    # delivered mistimed traffic can disrupt, and that
                    # self-incriminates at validation, within a period
                    # of the disruption it causes.
                    "convict": (convict_forgery + period if maskable
                                else None if convict_silence is None
                                else max(convict_forgery,
                                         convict_silence)),
                    # A node may first accept via its *own* evidence,
                    # generated when its own copy arrives late with the
                    # next period's traffic — up to a period plus the
                    # arrival spread after the first conviction, on top
                    # of the control-slice backlog all classes pay.
                    "quorum": (flood + arrival_slack + drift + period
                               + max_arrival),
                },
            }
            shared = {
                "switch": lead + period + drift,
                "settle": settle,
                # Residual runs from the first correct output to the
                # last disrupted slot's deadline. State transfer already
                # happened (before anything could be correct), so the
                # tail is bounded by one refill period plus the sink
                # deadline spread — and the constrained-deadline model
                # (deadline <= period, enforced at workload validation)
                # folds the spread into the period term.
                "residual": period + arrival_slack + drift,
            }
            for fault_class, spans in phase_sets.items():
                if fault_class == "silence" and maskable:
                    # The victim's silence cannot disrupt any output, so
                    # its (possibly slow or unreachable) conviction must
                    # not inflate the silence bound: its empirical
                    # recovery is structurally zero.
                    continue
                if spans["convict"] is None:
                    continue  # unreachable conviction: reported as such
                full = {**spans, **shared}
                total = sum(full.values())  # type: ignore[arg-type]
                acc = per_class[fault_class]
                for phase in PHASES:
                    acc[phase] = max(acc[phase], int(full[phase]))
                victim_totals[fault_class][victim] = int(total)
                best = worst_victim.get(fault_class, (-1, ""))
                if total > best[0]:
                    worst_victim[fault_class] = (int(total), victim)

        for fault_class in FAULT_CLASSES:
            if fault_class not in worst_victim:
                # No victim contributed a finite bound: either every
                # conviction is unreachable (reported via the findings)
                # or every victim's silence is maskable (its recovery is
                # structurally zero). Publish an explicit zero-bound
                # entry either way, so the soundness harness still holds
                # *something* against the class's kinds — any nonzero
                # empirical recovery then fails loudly instead of being
                # silently unchecked.
                entries.append(ClassBound(
                    mode=mode, fault_class=fault_class,
                    worst_victim=(min(unachievable) if unachievable
                                  else min(victims)),
                    phases={p: 0 for p in PHASES},
                    unachievable=dict(unachievable)))
                continue
            entries.append(ClassBound(
                mode=mode, fault_class=fault_class,
                worst_victim=worst_victim[fault_class][1],
                phases=dict(per_class[fault_class]),
                unachievable=(dict(unachievable)
                              if fault_class != "forgery" else {}),
                victim_totals=dict(victim_totals[fault_class])))

    R_us = config.R_us if config.R_us is not None else budget.total_us
    report = BoundsReport(period_us=period, f=strategy.f, R_us=R_us,
                          budget=budget.to_dict(), entries=tuple(entries))
    strategy._bounds = inputs + (report,)
    return report


__all__ = ["ConvictionProfile", "conviction_profile", "compute_bounds"]

"""`BTRSystem`: the public entry point of the library.

Typical use::

    from repro import BTRSystem, BTRConfig
    from repro.net import full_mesh_topology
    from repro.workload import industrial_workload
    from repro.faults import single_fault

    workload = industrial_workload()
    topology = full_mesh_topology(6)
    system = BTRSystem(workload, topology, BTRConfig(f=1))
    system.prepare()                           # offline planning
    fault = single_fault(system, "commission", at=250_000)
    result = system.run(n_periods=40, adversary=fault.script)
    print(result.summary())

``prepare()`` runs the offline planner (strategy over all fault patterns up
to f) and computes the achievable recovery budget; ``run()`` executes the
deployment on a fresh discrete-event simulation, optionally under a
:class:`~repro.faults.FaultScript` built beforehand (the builders in
:mod:`repro.faults.scenarios` build one from the prepared system), and
returns a :class:`RunResult` whose trace the analysis layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from ...crypto.signatures import KeyDirectory
from ...faults.adversary import FaultScript
from ...net.topology import Topology
from ...obs.metrics import MetricsRegistry
from ...persist import InputError
from ...sched.lanes import LaneModel
from ...sim.clock import CLOCK_SYNC_INTERVAL_US
from ...sim.engine import Simulator
from ...sim.trace import (
    LAST_TIME,
    Custom,
    FaultInjected,
    ModeSwitchCompleted,
    OutputProduced,
    Trace,
)
from ...workload.dataflow import DataflowGraph
from ..planner.strategy import Strategy, build_strategy
from ..planner.placement import PlacementConfig
from .agent import NodeAgent
from .budget import RecoveryBudget, compute_budget
from .config import BTRConfig


class NotPreparedError(Exception):
    """Raised when run() is called before prepare()."""


@dataclass
class PlanningStats:
    """How one ``prepare()`` obtained its strategy, and at what cost."""

    plans_total: int = 0
    #: Plans built by this prepare (0 on a cache hit).
    plans_computed: int = 0
    #: Whether the strategy came out of the on-disk cache.
    cache_hit: bool = False
    #: The cache slot consulted; ``None`` when no cache is configured.
    cache_key: Optional[str] = None
    #: Corrupt cache entries quarantined during the lookup.
    cache_quarantined: int = 0
    #: Wall-clock seconds spent obtaining the strategy.
    wall_s: float = 0.0


@dataclass
class RunResult:
    """Everything observable about one run."""

    trace: Trace
    config: Optional[BTRConfig]
    workload: DataflowGraph
    n_periods: int
    duration_us: int
    #: None for baseline systems, which make no recovery promise.
    budget: Optional[RecoveryBudget]
    #: node -> final mode id.
    final_modes: Dict[str, str] = field(default_factory=dict)
    #: node -> final fault set.
    final_fault_sets: Dict[str, frozenset] = field(default_factory=dict)
    #: Sink flows the post-fault plan deliberately shed (mixed-criticality
    #: degradation), mapped to the time from which they are excused. The
    #: analysis layer uses this for Definition 3.1's shedding extension.
    excused_flows: Dict[str, int] = field(default_factory=dict)
    #: This run's counters and gauges on top of the system's set-up
    #: counters (``MetricsRegistry.snapshot``); empty for baseline systems.
    metrics: Dict[str, Dict] = field(default_factory=dict)
    #: The slot table :func:`repro.analysis.classify_slots` builds on
    #: first use, so every judge of the run reads one table.
    _slot_table: Optional[tuple] = field(
        default=None, init=False, compare=False, repr=False)

    def outputs(self) -> List[OutputProduced]:
        return self.trace.of_kind(OutputProduced)

    def fault_times(self) -> Dict[str, int]:
        return {e.node: e.time for e in self.trace.of_kind(FaultInjected)}

    def mode_switches(self) -> List[ModeSwitchCompleted]:
        return self.trace.of_kind(ModeSwitchCompleted)

    def summary(self) -> str:
        faults = self.fault_times()
        switches = self.mode_switches()
        return (
            f"{self.n_periods} periods ({self.duration_us}us), "
            f"{len(self.outputs())} outputs, {len(faults)} faults "
            f"({', '.join(sorted(faults))}), "
            f"{len(switches)} mode-switch completions"
        )


class SimulatedSystem:
    """A workload deployed on a topology and run on the simulator: the
    construction plumbing and the one run lifecycle that BTR and every
    baseline share.

    A system supplies :meth:`make_agent` (one agent per node),
    :meth:`compromisable_nodes` (the victims the scenario builders pick
    from) and, if it has any, :meth:`start_services` (periodic
    system-level events); its own ``run()`` checks it is prepared, calls
    :meth:`_run_periods` and builds its :class:`RunResult` from the
    finished run.
    """

    def __init__(self, workload: DataflowGraph, topology: Topology,
                 seed: int) -> None:
        self.workload = workload
        self.topology = topology
        self.seed = seed
        if not set(workload.sources) <= set(topology.endpoint_map):
            topology.place_endpoints_round_robin(workload.sources,
                                                 workload.sinks)
        self.lane_model = LaneModel(topology)
        #: Set-up counters (``prepare()``-time: planner fallbacks, cache
        #: quarantines). Each run counts into :attr:`run_metrics`, a copy
        #: of this registry made as the run starts, so a run's metrics
        #: are the set-up counters plus that run alone.
        self.metrics = MetricsRegistry()
        # Imported lazily: repro.perf pulls in the planner stack.
        from ...perf.batchcore import BatchRuntime
        #: The hop runtime every message crosses a link through
        #: (:mod:`repro.perf.batchcore`), rebound by every run.
        self.batch_runtime = BatchRuntime()
        # Per-run state:
        self.sim: Optional[Simulator] = None
        self.trace: Optional[Trace] = None
        self.run_metrics: Optional[MetricsRegistry] = None
        self.agents: Dict[str, object] = {}

    # ------------------------------------------------------- system hooks

    def make_agent(self, node):
        raise NotImplementedError

    def compromisable_nodes(self) -> List[str]:
        raise NotImplementedError

    def start_services(self, n_periods: int) -> None:
        """Schedule the run's system-level services (clock sync,
        watchdogs, reset timers); called after the fault script is
        scheduled and before the first period tick."""

    # ---------------------------------------------------------------- run

    def _run_periods(self, n_periods: int,
                     adversary: Optional[FaultScript], trace: Trace,
                     delivery_hook=None, **services) -> int:
        """Run ``n_periods`` under the fault script ``adversary`` on a
        fresh simulator recording into ``trace``; returns the run's
        duration. ``services`` go to :meth:`start_services`.

        The run is released in a ``finally``: the events still queued
        past the horizon and the delivery hook are dropped
        (``Simulator.close()``), and so is every agent's pointer back up,
        so a finished run (and a dropped system) is freed by reference
        counting."""
        if (isinstance(n_periods, bool) or not isinstance(n_periods, int)
                or n_periods < 1):
            raise InputError(
                f"n_periods must be an int >= 1, got {n_periods!r}")
        duration = n_periods * self.workload.period
        if duration > LAST_TIME:
            raise InputError(f"{n_periods} periods end at {duration} us, "
                             f"past the trace's last time ({LAST_TIME} us)")
        if adversary is None:
            adversary = FaultScript()
        elif not isinstance(adversary, FaultScript):
            raise TypeError(f"run() takes a FaultScript or None, not "
                            f"{type(adversary).__name__}")
        adversary.check_nodes(self.topology.nodes)
        self.sim = Simulator(seed=self.seed)
        self.sim.delivery_hook = delivery_hook
        self.trace = trace
        self.run_metrics = self.metrics.copy()
        for _, node in sorted(self.topology.nodes.items()):
            node.reset()
        for _, link in sorted(self.topology.links.items()):
            link.reset()
        self.lane_model.install()
        self.agents = {
            node_id: self.make_agent(node)
            for node_id, node in sorted(self.topology.nodes.items())
        }
        self.batch_runtime.begin_run(self.sim, trace, self.topology,
                                     self.run_metrics, self.agents,
                                     duration)
        for injection in adversary:
            self.sim.call_at(injection.time, partial(
                self.agents[injection.node].compromise, injection.behavior))
        self.start_services(n_periods, **services)
        self.sim.call_at(0, partial(self._tick, 0, n_periods))
        try:
            self.sim.run_until(duration)
        finally:
            self.sim.close()
            for _, agent in sorted(self.agents.items()):
                agent.release()
        self.batch_runtime.end_run()
        return duration

    def _tick(self, k: int, n_periods: int) -> None:
        """Period ``k`` starts on every node; schedules period ``k + 1``."""
        agents = self.agents
        for node_id in sorted(agents):
            agents[node_id].on_period_start(k)
        if k + 1 < n_periods:
            self.sim.call_at((k + 1) * self.workload.period,
                             partial(self._tick, k + 1, n_periods))


class BTRSystem(SimulatedSystem):
    """A BTR deployment: workload + topology + config, prepared then run."""

    def __init__(self, workload: DataflowGraph, topology: Topology,
                 config: Optional[BTRConfig] = None) -> None:
        self.config = config or BTRConfig()
        super().__init__(workload, topology, self.config.seed)
        self.directory = KeyDirectory(master_seed=self.config.seed)
        for node_id in topology.nodes:
            self.directory.register(node_id)
        self.strategy: Optional[Strategy] = None
        self.budget: Optional[RecoveryBudget] = None
        #: Filled by prepare(): how the strategy was obtained.
        self.plan_stats: Optional[PlanningStats] = None

    # ------------------------------------------------------------- prepare

    def prepare(self, strict: bool = False) -> RecoveryBudget:
        """Run the offline planner; returns the achievable recovery budget.

        Raises :class:`PlanningError` if some anticipated fault pattern is
        unschedulable even after shedding, and ValueError if a requested
        R bound is tighter than the deployment can achieve.

        With ``strict=True``, the finished strategy is additionally run
        through the static verifier (:mod:`repro.verify`) and
        :class:`~repro.verify.VerificationError` is raised if any plan or
        mode transition violates a rule — the paper's "choosing the
        strategy offline seems safer" argument only holds if the offline
        artifact is itself audited before installation.
        """
        self.strategy = self._obtain_strategy(PlacementConfig(
            minimize_distance=self.config.minimize_distance,
            use_locality=self.config.use_locality,
            use_exposure=self.config.strategic_placement,
        ))
        budget = compute_budget(self.strategy, self.topology,
                                self.lane_model, metrics=self.metrics)
        if strict:
            # Imported lazily: repro.verify depends on the planner layer,
            # and nothing on the non-strict path should pay for it.
            # Config + lane model switch on the Layer-4 ``bound.*`` rules
            # (analytic recovery bounds vs. the promised R), which price
            # recovery against the budget just computed.
            from ...verify import require_clean, verify_strategy
            require_clean(verify_strategy(self.strategy, self.topology,
                                          config=self.config,
                                          lane_model=self.lane_model,
                                          budget=budget))
        self.budget = budget
        if (self.config.R_us is not None
                and self.budget.total_us > self.config.R_us):
            raise ValueError(
                f"requested R={self.config.R_us}us not achievable: "
                f"budget needs {self.budget.total_us}us "
                f"(detection {self.budget.detection_us} + distribution "
                f"{self.budget.distribution_us} + switch "
                f"{self.budget.switch_us} + settling "
                f"{self.budget.settling_us})"
            )
        return self.budget

    def _obtain_strategy(self, planner_config: PlacementConfig
                         ) -> Strategy:
        """The cached strategy if ``config.cache`` holds one, otherwise
        a planned one (stored on the way out); ``self.plan_stats`` records
        which. The perf layer imports the planner, hence the late import.
        """
        from ...perf.cache import StrategyCache, strategy_cache_key
        from ...perf.timing import Stopwatch

        cfg = self.config
        stats = self.plan_stats = PlanningStats()
        watch = Stopwatch()
        cache = strategy = None
        if cfg.cache:
            cache = StrategyCache(cfg.cache)
            stats.cache_key = strategy_cache_key(
                self.workload, self.topology, cfg.f, planner_config)
            strategy = cache.load(stats.cache_key)
            if cache.quarantined:
                # A corrupt on-disk entry was set aside and treated as a
                # miss — surface it, never fail prepare() over it.
                self.metrics.inc("cache_entries_quarantined",
                                 cache.quarantined)
                stats.cache_quarantined = cache.quarantined
            stats.cache_hit = strategy is not None
        if strategy is None:
            strategy = build_strategy(
                self.workload, self.topology, cfg.f,
                lane_model=self.lane_model, config=planner_config,
            )
            stats.plans_computed = len(strategy)
            if cache is not None:
                cache.store(stats.cache_key, strategy)
        stats.plans_total = len(strategy)
        stats.wall_s = watch.elapsed_s()
        return strategy

    # ----------------------------------------------------------------- run

    def run(self, n_periods: int,
            adversary: Optional[FaultScript] = None,
            link_script: Optional[List[tuple]] = None,
            delivery_hook=None) -> RunResult:
        """Execute ``n_periods`` of the deployment under the fault script
        ``adversary`` (``None``: no faults).

        ``link_script`` optionally degrades links mid-run: a list of
        ``(time_us, link_id, loss_probability)`` events (e.g. a connector
        working loose, EMI on one segment). Link faults are *not* node
        faults: the strategy's modes are keyed by faulty node sets, so a
        bad link surfaces as path declarations charging both endpoints —
        the tie that strict-dominance attribution deliberately refuses to
        break. E16 measures exactly what that buys and costs.

        ``delivery_hook`` optionally installs a message-delivery choice
        point on the run's simulator (``hook(sender, receiver, arrival)
        -> arrival``; see :attr:`~repro.sim.engine.Simulator
        .delivery_hook`). The bounded model checker uses it to drive one
        run down a specific delivery-ordering branch; counterexample
        replay passes the recorded schedule back through this same
        parameter, so the proof path is the normal run path.
        """
        if self.strategy is None:
            raise NotPreparedError("call prepare() before run()")
        self.directory.begin_run()
        link_script = link_script or ()
        links = self.topology.links
        # Link scripts mutate Link objects that outlive the run (the
        # topology is shared across sweep siblings); restore the pre-run
        # residual loss so runs stay order-independent.
        pristine = [(links[link_id], links[link_id].loss_probability)
                    for _, link_id, _ in link_script]
        try:
            duration = self._run_periods(
                n_periods, adversary, Trace(mode=self.config.trace_mode),
                delivery_hook, link_script=link_script)
        finally:
            for link, loss in pristine:
                link.loss_probability = loss

        # Flows deliberately shed: by the nominal plan, excused from the
        # start; by the plan in force at the end of the run, from the
        # first mode switch onward.
        nominal_kept = {f.name for f in
                        self.strategy.nominal.workload.sink_flows()}
        excused: Dict[str, int] = {
            f.name: 0 for f in self.workload.sink_flows()
            if f.name not in nominal_kept}
        fault_sets = {n: a.switching.switcher.fault_set.snapshot()
                      for n, a in self.agents.items()}
        switches = self.trace.of_kind(ModeSwitchCompleted)
        if switches:
            first_switch = switches[0].time
            final_plan = self.strategy.plan_for(frozenset().union(*(
                fs for n, fs in fault_sets.items()
                if not self.topology.nodes[n].compromised)))
            kept = {f.name for f in final_plan.workload.sink_flows()}
            for flow in self.workload.sink_flows():
                if flow.name not in kept:
                    excused.setdefault(flow.name, first_switch)

        metrics = self.run_metrics
        metrics.set_gauge("sim_events_executed", self.sim.events_executed)
        metrics.set_gauge("trace_events", len(self.trace))
        metrics.inc("crypto_hmac", value=self.directory.signs, op="sign")
        metrics.inc("crypto_hmac", value=self.directory.verifies,
                    op="verify")
        memo = self.directory.verify_memo
        metrics.inc("verify_memo", value=memo.hits, result="hit")
        metrics.inc("verify_memo", value=memo.misses, result="miss")
        return RunResult(
            trace=self.trace,
            config=self.config,
            workload=self.workload,
            n_periods=n_periods,
            duration_us=duration,
            budget=self.budget,
            final_modes={n: a.plan.mode for n, a in self.agents.items()},
            final_fault_sets=fault_sets,
            excused_flows=excused,
            metrics=metrics.snapshot(),
        )

    def make_agent(self, node) -> NodeAgent:
        return NodeAgent(self, node)

    def start_services(self, n_periods: int, link_script=()) -> None:
        """Every node's clock drifts from the start and is re-synchronised
        every :data:`CLOCK_SYNC_INTERVAL_US`; the link script degrades
        its links on time."""
        clock_rng = self.sim.rng.fork("clocks")
        drift = self.config.clock_drift_ppm
        for _, node in sorted(self.topology.nodes.items()):
            node.clock = type(node.clock)(
                drift_ppm=clock_rng.uniform(-drift, drift) if drift else 0.0,
            )
        self.sim.call_after(CLOCK_SYNC_INTERVAL_US, self._sync_clocks)
        for at, link_id, loss in link_script:
            self.sim.call_at(at, partial(self._degrade, link_id, loss))

    def _degrade(self, link_id: str, loss: float) -> None:
        self.topology.links[link_id].loss_probability = loss
        # From now on every heartbeat copy may draw a loss.
        self.batch_runtime.defer_settled = False
        self.trace.record(Custom(
            time=self.sim.now, label="link_degraded",
            data={"link": link_id, "loss": loss},
        ))

    def _sync_clocks(self) -> None:
        """One round of periodic clock synchronization (the paper's
        synchrony assumption); schedules the next. Correct nodes are
        re-centred each round; a node whose behaviour pins a rogue clock
        ignores the round and keeps its offset."""
        now = self.sim.now
        for node_id, agent in sorted(self.agents.items()):
            offset = agent.behavior.rogue_clock_offset_us
            if offset is not None:
                agent.node.clock.synchronize_to(now, now + offset)
            else:
                agent.node.clock.synchronize_to(now, now)
        self.sim.call_after(CLOCK_SYNC_INTERVAL_US, self._sync_clocks)

    def compromisable_nodes(self) -> List[str]:
        """Nodes the experiments let the adversary pick from: strategy-
        covered nodes that actually host instances in the nominal plan."""
        nominal = self.strategy.nominal
        hosting = set(nominal.assignment.values())
        return sorted(self.strategy.covered_nodes & hosting)

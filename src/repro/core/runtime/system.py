"""`BTRSystem`: the public entry point of the library.

Typical use::

    from repro import BTRSystem, BTRConfig
    from repro.net import full_mesh_topology
    from repro.workload import industrial_workload
    from repro.faults import SingleFaultAdversary

    workload = industrial_workload()
    topology = full_mesh_topology(6)
    system = BTRSystem(workload, topology, BTRConfig(f=1))
    system.prepare()                           # offline planning
    result = system.run(
        n_periods=40,
        adversary=SingleFaultAdversary(at=250_000, kind="commission"),
    )
    print(result.summary())

``prepare()`` runs the offline planner (strategy over all fault patterns up
to f) and computes the achievable recovery budget; ``run()`` executes the
deployment on a fresh discrete-event simulation, optionally under an
adversary, and returns a :class:`RunResult` whose trace the analysis layer
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Union

from ...crypto.signatures import KeyDirectory
from ...faults.adversary import Adversary, FaultScript
from ...net.routing import Router, RoutingError
from ...net.topology import Topology
from ...obs.metrics import MetricsRegistry
from ...sched.lanes import LaneModel
from ...sim.engine import Simulator
from ...sim.message import Message
from ...sim.trace import (
    Custom,
    FaultInjected,
    MessageDropped,
    MessageSent,
    ModeSwitchCompleted,
    OutputProduced,
    Trace,
)
from ...workload.dataflow import DataflowGraph
from ..planner.strategy import Strategy, StrategyConfig, build_strategy
from ..planner.placement import PlacementConfig
from ..planner.augment import AugmentConfig
from .agent import NodeAgent
from .budget import RecoveryBudget, compute_budget, distribution_bound
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
    #: Snapshot of the system's metrics registry (counters/gauges/
    #: histograms) at the end of the run; empty for baseline systems.
    metrics: Dict[str, Dict] = field(default_factory=dict)

    def outputs(self) -> List[OutputProduced]:
        return self.trace.of_kind(OutputProduced)

    def fault_times(self) -> Dict[str, int]:
        return {e.node: e.time for e in self.trace.of_kind(FaultInjected)}

    def mode_switches(self) -> List[ModeSwitchCompleted]:
        return self.trace.of_kind(ModeSwitchCompleted)

    def messages_sent(self) -> int:
        return self.trace.count(MessageSent)

    def summary(self) -> str:
        faults = self.fault_times()
        switches = self.mode_switches()
        return (
            f"{self.n_periods} periods ({self.duration_us}us), "
            f"{len(self.outputs())} outputs, {len(faults)} faults "
            f"({', '.join(sorted(faults))}), "
            f"{len(switches)} mode-switch completions"
        )


class BTRSystem:
    """A BTR deployment: workload + topology + config, prepared then run."""

    def __init__(self, workload: DataflowGraph, topology: Topology,
                 config: Optional[BTRConfig] = None) -> None:
        self.workload = workload
        self.topology = topology
        self.config = config or BTRConfig()
        if not set(workload.sources) <= set(topology.endpoint_map):
            topology.place_endpoints_round_robin(workload.sources,
                                                 workload.sinks)
        self.router = Router(topology)
        self.lane_model = LaneModel(topology, self.config.lanes)
        self.directory = KeyDirectory(master_seed=self.config.seed,
                                      verify_memo=True)
        for node_id in topology.nodes:
            self.directory.register(node_id)
        self.strategy: Optional[Strategy] = None
        self.budget: Optional[RecoveryBudget] = None
        self.switch_lead_us: int = 0
        #: Numeric observability channel (counters/gauges/histograms),
        #: shared by prepare()-time and run()-time instrumentation and
        #: snapshotted into each RunResult.
        self.metrics = MetricsRegistry()
        #: Filled by prepare(): how the strategy was obtained.
        self.plan_stats: Optional[PlanningStats] = None
        #: The hop runtime every message crosses a link through
        #: (:mod:`repro.perf.batchcore`), constructed on first run() and
        #: kept across runs so its batch-event free lists stay warm.
        self.batch_runtime = None
        # Per-run state:
        self.sim: Optional[Simulator] = None
        self.trace: Optional[Trace] = None
        self.agents: Dict[str, NodeAgent] = {}

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
        strategy_config = StrategyConfig(
            minimize_distance=self.config.minimize_distance,
            protect_endpoints=self.config.protect_endpoints,
            placement=PlacementConfig(
                use_locality=self.config.use_locality,
                use_distance=self.config.minimize_distance,
                use_exposure=self.config.strategic_placement,
            ),
        )
        augment_config = AugmentConfig(
            replicas=self.config.f + 1, check_us=self.config.check_us,
        )
        self.strategy = self._obtain_strategy(strategy_config,
                                              augment_config)
        self.switch_lead_us = (
            self.config.switch_lead_us
            if self.config.switch_lead_us is not None
            else distribution_bound(self.topology, self.lane_model,
                                    self.config, metrics=self.metrics)
        )
        if strict:
            # Imported lazily: repro.verify depends on the planner layer,
            # and nothing on the non-strict path should pay for it.
            # Config + lane model switch on the Layer-4 ``bound.*`` rules
            # (analytic recovery bounds vs. the promised R).
            from ...verify import require_clean, verify_strategy
            require_clean(verify_strategy(self.strategy, self.topology,
                                          router=self.router,
                                          config=self.config,
                                          lane_model=self.lane_model))
        self.budget = compute_budget(self.strategy, self.topology,
                                     self.lane_model, self.router,
                                     self.config, metrics=self.metrics)
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

    def _obtain_strategy(self, strategy_config: StrategyConfig,
                         augment_config: AugmentConfig) -> Strategy:
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
                self.workload, self.topology, cfg.f,
                strategy_config=strategy_config,
                augment_config=augment_config,
                lane_fractions=cfg.lanes,
            )
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
                self.workload, self.topology, self.router, cfg.f,
                lane_model=self.lane_model, config=strategy_config,
                augment_config=augment_config,
            )
            stats.plans_computed = len(strategy)
            if cache is not None:
                cache.store(stats.cache_key, strategy)
        stats.plans_total = len(strategy)
        stats.wall_s = watch.elapsed_s()
        return strategy

    # ----------------------------------------------------------------- run

    def run(self, n_periods: int,
            adversary: Optional[Union[Adversary, FaultScript]] = None,
            link_script: Optional[List[tuple]] = None,
            delivery_hook=None) -> RunResult:
        """Execute ``n_periods`` of the deployment under ``adversary``.

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
        period = self.workload.period
        duration = n_periods * period

        self.sim = Simulator(seed=self.config.seed)
        self.sim.delivery_hook = delivery_hook
        self.trace = Trace(mode=self.config.trace_mode)
        self.directory.begin_run()
        clock_rng = self.sim.rng.fork("clocks")
        for node_id, node in sorted(self.topology.nodes.items()):
            node.reset()
            drift = self.config.clock_drift_ppm
            node.clock = type(node.clock)(
                drift_ppm=clock_rng.uniform(-drift, drift) if drift else 0.0,
            )
        for link in self.topology.links.values():
            link.reset()
        self.lane_model.install()

        if self.batch_runtime is None:
            # Imported lazily: repro.perf pulls in the planner stack.
            from ...perf.batchcore import BatchRuntime
            self.batch_runtime = BatchRuntime()

        self.agents = {
            node_id: NodeAgent(self, node)
            for node_id, node in sorted(self.topology.nodes.items())
        }
        self.batch_runtime.begin_run(self.sim, self.trace, self.topology,
                                     self.metrics, self.agents, duration)
        self._install_clock_sync()

        script = self._resolve_script(adversary)
        for injection in script:
            agent = self.agents[injection.node]
            self.sim.call_at(
                injection.time,
                lambda a=agent, b=injection.behavior: a.compromise(b),
            )
        scripted_loss = []
        for at, link_id, loss in (link_script or []):
            link = self.topology.links[link_id]
            scripted_loss.append((link, link.loss_probability))

            def degrade(l=link, p=loss, lid=link_id) -> None:
                l.loss_probability = p
                self.trace.record(Custom(
                    time=self.sim.now, label="link_degraded",
                    data={"link": lid, "loss": p},
                ))

            self.sim.call_at(at, degrade)

        def tick(k: int) -> None:
            for node_id in sorted(self.agents):
                self.agents[node_id].on_period_start(k)
            if k + 1 < n_periods:
                self.sim.call_at((k + 1) * period, lambda: tick(k + 1))

        self.sim.call_at(0, lambda: tick(0))
        try:
            self.sim.run_until(duration)
        finally:
            # Link scripts mutate Link objects that outlive the run (the
            # topology is shared across sweep siblings); restore the
            # pre-run residual loss so runs stay order-independent.
            for link, pristine in scripted_loss:
                link.loss_probability = pristine
        self.batch_runtime.end_run()

        # Flows deliberately shed by the plan in force at the end of the
        # run, excused from the first mode switch onward.
        excused: Dict[str, int] = {}
        switches = self.trace.of_kind(ModeSwitchCompleted)
        if switches:
            first_switch = switches[0].time
            fault_sets = [a.switcher.fault_set.snapshot()
                          for n, a in self.agents.items()
                          if not self.topology.nodes[n].compromised]
            union = frozenset().union(*fault_sets) if fault_sets \
                else frozenset()
            final_plan = self.strategy.plan_for(union)
            kept = {f.name for f in final_plan.workload.sink_flows()}
            for flow in self.workload.sink_flows():
                if flow.name not in kept:
                    excused[flow.name] = first_switch

        self.metrics.set_gauge("sim_events_executed",
                               self.sim.events_executed)
        self.metrics.set_gauge("trace_events", len(self.trace))
        self.metrics.inc("crypto_hmac", value=self.directory.signs,
                         op="sign")
        self.metrics.inc("crypto_hmac", value=self.directory.verifies,
                         op="verify")
        memo = self.directory.verify_memo
        self.metrics.inc("verify_memo", value=memo.hits, result="hit")
        self.metrics.inc("verify_memo", value=memo.misses, result="miss")
        return RunResult(
            trace=self.trace,
            config=self.config,
            workload=self.workload,
            n_periods=n_periods,
            duration_us=duration,
            budget=self.budget,
            final_modes={n: a.plan.mode for n, a in self.agents.items()},
            final_fault_sets={
                n: a.switcher.fault_set.snapshot()
                for n, a in self.agents.items()
            },
            excused_flows=excused,
            metrics=self.metrics.snapshot(),
        )

    def _install_clock_sync(self) -> None:
        """Periodic clock synchronization (the paper's synchrony
        assumption). Correct nodes are re-centred each round; a node whose
        behaviour pins a rogue clock ignores the round and keeps its
        offset."""
        interval = self.config.clock_sync_interval_us
        if interval <= 0:
            return

        def sync_round() -> None:
            now = self.sim.now
            for node_id, agent in sorted(self.agents.items()):
                offset = agent.behavior.rogue_clock_offset_us
                if offset is not None:
                    agent.node.clock.synchronize_to(now, now + offset)
                else:
                    agent.node.clock.synchronize_to(now, now)
            self.sim.call_after(interval, sync_round)

        self.sim.call_after(interval, sync_round)

    def _resolve_script(self, adversary) -> FaultScript:
        if adversary is None:
            return FaultScript()
        if isinstance(adversary, FaultScript):
            return adversary
        candidates = self.compromisable_nodes()
        return adversary.script(candidates,
                                self.sim.rng.fork("adversary"))

    def compromisable_nodes(self) -> List[str]:
        """Nodes the experiments let the adversary pick from: strategy-
        covered nodes that actually host instances in the nominal plan."""
        nominal = self.strategy.nominal
        hosting = set(nominal.assignment.values())
        return sorted(set(self.strategy.covered_nodes) & hosting)

    # ------------------------------------------------------------ messaging

    def send_routed(self, agent: NodeAgent, message: Message,
                    plan) -> None:
        """Send a control/state message along a static route that avoids
        the plan's known-faulty nodes."""
        if message.dst == agent.node_id:
            self.sim.call_after(1, partial(agent._deliver_local, message))
            return
        try:
            path = self.router.route(agent.node_id, message.dst,
                                     excluding=plan.pattern)
        except RoutingError:
            # No route avoiding the faulty set: the plan has partitioned
            # the sender from the destination. Count it — a silent drop
            # here looks exactly like an omission fault downstream.
            self.metrics.inc("messages_dropped", reason="no_route")
            self.trace.record(MessageDropped(
                time=self.sim.now, src=agent.node_id, dst=message.dst,
                kind=message.kind.value, reason="no_route",
            ))
            return
        if len(path) < 2:
            self.metrics.inc("messages_dropped", reason="no_forward_hop")
            self.trace.record(MessageDropped(
                time=self.sim.now, src=agent.node_id, dst=message.dst,
                kind=message.kind.value, reason="no_forward_hop",
            ))
            return
        self.batch_runtime.send(agent.node_id, path[1], message)

    def next_hop_static(self, current: str, dst: str) -> Optional[str]:
        """Next hop on the nominal shortest path (control forwarding)."""
        try:
            path = self.router.route(current, dst)
        except RoutingError:
            self.metrics.inc("messages_dropped", reason="no_route_static")
            return None
        return path[1] if len(path) > 1 else None

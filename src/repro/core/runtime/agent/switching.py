"""Mode switching: the third of a node's three runtime roles (§4.4).

:class:`ModeSwitching` turns an implication into a mode change at
the switcher's boundary, and fetches (or rebuilds) the state of the
instances the new plan moves here. It owns the switcher — the node's
fault set — the end of the confusion window and the instances still
waiting for state.
"""

from __future__ import annotations

from functools import partial
from typing import Set

from ....sim.message import CONTROL_BITS, MessageKind
from ....sim.trace import ModeSwitchCompleted, ModeSwitchStarted, TaskShed
from ...modes.switcher import SUPPRESS_PERIODS, ModeSwitcher
from ...modes.transition import compute_transition

#: Periods to wait for a state transfer before rebuilding locally.
STATE_TIMEOUT_PERIODS = 2
#: Local state rebuild rate (bits per µs) when no correct state source
#: survives.
REBUILD_BITS_PER_US = 50.0


class ModeSwitching:
    """One node's mode switches and state transfers."""

    def __init__(self, agent, budget) -> None:
        self.agent = agent
        # The switch lead is the budget's distribution bound.
        self.switcher = ModeSwitcher(
            agent.strategy, agent.period, budget.distribution_us,
            metrics=agent.metrics,
        )
        #: No omission or timing judgement before this time (switch
        #: confusion).
        self.suppress_until = 0
        #: Instances blocked on state transfer/rebuild.
        self.pending_state: Set[str] = set()
        #: The confusion window: from a switch until well past it, plans
        #: across the fleet may disagree and migrated instances may still
        #: be waiting for state — omission/timing judgements would
        #: implicate innocents. The settling term covers worst-case state
        #: transfer.
        self._confusion_us = (SUPPRESS_PERIODS * agent.period
                              + budget.settling_us)

    def release(self) -> None:
        """The run is over: drop the pointer back up to the agent."""
        self.agent = None

    def _confused_from(self, start: int) -> None:
        self.suppress_until = max(self.suppress_until,
                                  start + self._confusion_us)

    def implicate(self, accused: str, evidence_time: int) -> None:
        agent = self.agent
        sim = agent.sim
        pending = self.switcher.on_implicated(accused, evidence_time,
                                              sim.now)
        if pending is None:
            return
        agent.trace.record(ModeSwitchStarted(
            time=sim.now, node=agent.node_id,
            from_mode=agent.plan.mode, to_mode=pending.plan.mode,
            boundary=pending.at,
        ))
        self._confused_from(pending.at)
        sim.call_at(pending.at, self._switch)

    def _switch(self) -> None:
        """At the boundary: adopt the plan for the fault set known now."""
        agent = self.agent
        if agent.node.crashed:
            return
        faulty = self.switcher.fault_set.snapshot()
        new_plan = agent.strategy.plan_for(faulty)
        old_plan = agent.plan
        if new_plan.mode == old_plan.mode:
            return
        now = agent.sim.now
        transition = compute_transition(agent.node_id, old_plan, new_plan,
                                        set(faulty))
        agent.install(new_plan)
        self.switcher.adopt(new_plan)
        agent.detector.reset()
        self._confused_from(now)
        # Declarations from before the confusion window ends describe the
        # old regime.
        agent.evidence.new_regime(self.suppress_until)
        for fetch in transition.fetches:
            self.pending_state.add(fetch.instance)
            if fetch.source is None:
                self._rebuild_state(fetch.instance, fetch.bits)
            else:
                self._request_state(fetch.instance, fetch.source, fetch.bits)
        # Record criticality shedding once, from a single designated node
        # (all correct nodes shed identically; one record per task is
        # enough for the analysis layer).
        if agent.node_id == min(agent.topology.nodes):
            workload = agent.workload
            previously_shed = set(old_plan.shed_tasks(workload))
            for task in new_plan.shed_tasks(workload):
                if task in previously_shed:
                    continue
                agent.trace.record(TaskShed(
                    time=now, task=task,
                    criticality=workload.tasks[task].criticality.value,
                    mode=new_plan.mode,
                ))
        agent.trace.record(ModeSwitchCompleted(
            time=now, node=agent.node_id, mode=new_plan.mode,
        ))

    # -------------------------------------------------------- state transfer

    def _rebuild_state(self, instance: str, bits: int) -> None:
        node = self.agent.node
        if not node.crashed:
            node.execute(self.agent.sim,
                         max(1, int(bits / REBUILD_BITS_PER_US)),
                         callback=partial(self.pending_state.discard,
                                          instance),
                         lane="fg")

    def _request_state(self, instance: str, source: str, bits: int) -> None:
        agent = self.agent
        agent.send_control(source, MessageKind.CONTROL,
                           ("state_req", instance, agent.node_id),
                           CONTROL_BITS)
        # Fallback: rebuild locally if the source never answers.
        deadline = agent.sim.now + STATE_TIMEOUT_PERIODS * agent.period
        agent.sim.call_at(deadline, lambda: (
            self._rebuild_state(instance, bits)
            if instance in self.pending_state else None
        ))

    def handle_state_request(self, instance: str, requester: str) -> None:
        agent = self.agent
        if agent.behavior.suppresses_detection():
            return
        task = agent.plan.augmented.tasks.get(instance)
        bits = task.state_bits if task else 65536
        agent.send_control(requester, MessageKind.STATE,
                           ("state_payload", instance), max(bits, 1))

    def on_state(self, payload) -> None:
        """A state transfer addressed to this node arrived."""
        if isinstance(payload, tuple) and payload[0] == "state_payload":
            self.pending_state.discard(payload[1])

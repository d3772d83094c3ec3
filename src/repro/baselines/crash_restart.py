"""Crash-restart baseline: watchdog reboot, crash faults only.

The microreboot / crash-only school (§5, "some systems also support simple
forms of recovery, such as rebooting faulty machines"): one copy of each
task, a hardware watchdog per node that detects fail-stop silence and
reboots the node after a fixed delay. The two limits the experiments
surface:

* only *crash* faults recover — a commission- or timing-faulty node keeps
  answering the watchdog, so its wrong outputs flow forever undetected;
* even for crashes, recovery time = watchdog timeout + reboot, with no
  relation to workload deadlines.
"""

from __future__ import annotations

from functools import partial

from ..sim.trace import Custom
from ..faults.behaviors import FaultBehavior
from ..workload.dataflow import DataflowGraph
from .base import BaselineSystem
from .unreplicated import UnreplicatedAgent


class CrashRestartSystem(BaselineSystem):
    """Single copy + per-node watchdog reboot."""

    name = "crash_restart"

    def __init__(self, workload, topology, f: int = 1, seed: int = 0,
                 watchdog_periods: int = 2, reboot_periods: int = 2) -> None:
        super().__init__(workload, topology, f=f, seed=seed)
        if watchdog_periods < 1 or reboot_periods < 0:
            raise ValueError("invalid watchdog/reboot configuration")
        self.watchdog_periods = watchdog_periods
        self.reboot_periods = reboot_periods

    def make_augmented(self) -> DataflowGraph:
        return self.workload

    def make_agent(self, node) -> UnreplicatedAgent:
        return UnreplicatedAgent(self, node)

    def start_services(self, n_periods: int) -> None:
        #: node -> when the watchdog first saw it crashed (this run).
        self._crashed_since: dict = {}
        self.sim.call_after(self.workload.period, self._watchdog)

    def _watchdog(self) -> None:
        """One watchdog round over every node; schedules the next."""
        period = self.workload.period
        crashed_since = self._crashed_since
        now = self.sim.now
        for node_id, agent in sorted(self.agents.items()):
            node = agent.node
            if node.crashed:
                since = crashed_since.setdefault(node_id, now)
                if now - since >= self.watchdog_periods * period:
                    delay = self.reboot_periods * period
                    crashed_since.pop(node_id, None)
                    self.sim.call_after(delay, partial(self._reboot, agent))
            else:
                crashed_since.pop(node_id, None)
        self.sim.call_after(period, self._watchdog)

    def _reboot(self, agent: UnreplicatedAgent) -> None:
        # The watchdog restores a crashed node to correct operation; it has
        # no power over a node that is up but lying.
        agent.node.crashed = False
        agent.node.compromised = False
        agent.behavior = FaultBehavior()
        agent.inbox.clear()
        self.trace.record(Custom(
            time=self.sim.now, label="reboot",
            data={"node": agent.node_id},
        ))

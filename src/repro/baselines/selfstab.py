"""Self-stabilization-style baseline: recover *eventually*, with no bound.

§3.1: "without a hard upper bound on R, BTR closely resembles
self-stabilization, where the system is simply required to return to
correct operation eventually." We model the classical setting: a single
copy of everything plus a periodic global reset that repairs *transient*
damage — crashed nodes are rebooted and all stale state cleared every
``reset_every`` periods. Two properties the experiments surface:

* crash faults recover, but only at the next reset boundary — the expected
  recovery time is reset_every/2 periods and the worst case is unbounded
  in R's terms (pick reset_every large and recovery is arbitrarily slow);
* Byzantine (non-crash) faults never recover: the compromised node is
  "reset" into the adversary's hands again, exactly the criticism the
  paper's related-work section makes of classic self-stabilization.
"""

from __future__ import annotations

from ..faults.behaviors import FaultBehavior
from ..sim.trace import Custom
from ..workload.dataflow import DataflowGraph
from .base import BaselineSystem
from .unreplicated import UnreplicatedAgent


class SelfStabilizingSystem(BaselineSystem):
    """Single copy + periodic global reset (eventual recovery)."""

    name = "selfstab"

    def __init__(self, workload, topology, f: int = 1, seed: int = 0,
                 reset_every: int = 10) -> None:
        super().__init__(workload, topology, f=f, seed=seed)
        if reset_every < 1:
            raise ValueError("reset_every must be >= 1 period")
        self.reset_every = reset_every

    def make_augmented(self) -> DataflowGraph:
        return self.workload

    def make_agent(self, node) -> UnreplicatedAgent:
        return UnreplicatedAgent(self, node)

    def start_services(self, n_periods: int) -> None:
        self.sim.call_after(self.reset_every * self.workload.period,
                            self._global_reset)

    def _global_reset(self) -> None:
        """One global reset; schedules the next."""
        self.trace.record(Custom(time=self.sim.now, label="global_reset"))
        for node_id, agent in sorted(self.agents.items()):
            node = agent.node
            if node.crashed:
                # A reset repairs fail-stop damage (watchdog reboot)...
                node.crashed = False
            if node.compromised and agent.behavior.is_crash():
                agent.behavior = FaultBehavior()
                node.compromised = False
            # ...but a Byzantine compromise persists: the adversary
            # still controls the node after the reset.
            agent.inbox.clear()
        self.sim.call_after(self.reset_every * self.workload.period,
                            self._global_reset)

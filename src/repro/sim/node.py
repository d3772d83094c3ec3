"""Node model: finite processing speed, CPU reservations, link attachment.

A node is a resource container. It owns:

* a CPU with finite speed, split into **execution lanes** so that a fraction
  of the processor can be statically reserved for the BTR control plane
  (evidence verification and distribution) — the paper's "there are no extra
  resources for BTR" means these reservations must be explicit;
* a :class:`~repro.sim.clock.LocalClock`;
* attachments to the links it can reach.

Behaviour (what the node computes and sends) lives in the runtime layer,
whose hop runtime (:class:`~repro.perf.batchcore.BatchRuntime`) hands each
arriving message straight to the node's agent unless the node is
``crashed``; a compromised node's behaviour is replaced wholesale by the
fault injectors, but its *resources* — CPU speed, lane shares, link lanes
— are still enforced by this layer, mirroring the hardware MAC assumption
in the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .clock import LocalClock
from .engine import Simulator
from .link import Link


class CpuLane:
    """A serialized slice of a node's CPU with a fixed speed share."""

    def __init__(self, name: str, speed: float) -> None:
        if speed <= 0:
            raise ValueError(f"lane speed must be positive, got {speed}")
        self.name = name
        self.speed = speed
        self.next_free = 0
        self.busy_us = 0

    def run(
        self,
        sim: Simulator,
        work_us: int,
        callback: Optional[Callable[[], None]] = None,
    ) -> int:
        """Execute ``work_us`` of nominal work on this lane.

        Work is scaled by the lane's speed, serialized behind earlier jobs.
        Returns the completion time; ``callback`` fires then.
        """
        duration = max(1, int(round(work_us / self.speed)))
        start = max(sim.now, self.next_free)
        finish = start + duration
        self.next_free = finish
        self.busy_us += duration
        if callback is not None:
            sim.call_at(finish, callback)
        return finish

    def utilization(self, horizon: int) -> float:
        """Fraction of [0, horizon] this lane spent busy."""
        return self.busy_us / horizon if horizon > 0 else 0.0


class Node:
    """A processing node in the CPS."""

    #: Default fraction of the CPU reserved for the BTR control plane.
    DEFAULT_CONTROL_SHARE = 0.1

    def __init__(
        self,
        node_id: str,
        speed: float = 1.0,
        clock: Optional[LocalClock] = None,
        control_share: float = DEFAULT_CONTROL_SHARE,
        is_source: bool = False,
        is_sink: bool = False,
        region: Optional[str] = None,
    ) -> None:
        if not 0.0 < control_share < 1.0:
            raise ValueError("control_share must be in (0, 1)")
        self.node_id = node_id
        self.speed = speed
        #: Geographic region tag (geo topologies); None for flat
        #: deployments.
        self.region = region
        self.clock = clock or LocalClock()
        self.is_source = is_source
        self.is_sink = is_sink
        #: Foreground lane runs workload tasks; control lane runs BTR tasks.
        self.lanes: Dict[str, CpuLane] = {
            "fg": CpuLane("fg", speed * (1.0 - control_share)),
            "ctrl": CpuLane("ctrl", speed * control_share),
        }
        self._links: Dict[str, Link] = {}
        #: Set by fault injection; resources stay enforced regardless.
        self.compromised = False
        #: Fail-stop: a crashed node refuses work, and arriving traffic is
        #: dropped at the receiver.
        self.crashed = False

    # ------------------------------------------------------------ topology

    def attach(self, link: Link) -> None:
        if self.node_id not in link.endpoints:
            raise ValueError(
                f"{self.node_id} is not an endpoint of {link.link_id}"
            )
        self._links[link.link_id] = link

    @property
    def links(self) -> Dict[str, Link]:
        return dict(self._links)

    def link_to(self, neighbor: str) -> Optional[Link]:
        """A directly attached link that also reaches ``neighbor``."""
        for link in self._links.values():
            if neighbor in link.endpoints:
                return link
        return None

    # ------------------------------------------------------------- compute

    def execute(
        self,
        sim: Simulator,
        work_us: int,
        callback: Optional[Callable[[], None]] = None,
        lane: str = "fg",
    ) -> int:
        """Run ``work_us`` of nominal CPU work on the given lane."""
        if self.crashed:
            raise RuntimeError(f"node {self.node_id} is crashed")
        return self.lanes[lane].run(sim, work_us, callback)

    def reset(self) -> None:
        """Clear per-run state: CPU queues, fault flags."""
        for lane in self.lanes.values():
            lane.next_free = 0
            lane.busy_us = 0
        self.compromised = False
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.is_source:
            flags.append("source")
        if self.is_sink:
            flags.append("sink")
        if self.compromised:
            flags.append("compromised")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"Node({self.node_id}, speed={self.speed}){suffix}"

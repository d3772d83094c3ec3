"""The static lane model: how each link's bandwidth is divided.

CPS networks in the paper's model statically allocate link bandwidth among
the attached nodes (the hardware MAC / bus-guardian assumption). We use a
fixed four-way split per link, with each traffic class's fraction divided
equally among the attached senders::

    DATA      : workload dataflow traffic
    STATE     : task state transfer during mode changes
    EVIDENCE  : fault evidence distribution
    CONTROL   : mode-change coordination

The schedule synthesizer computes transmission times from these rates, and
the runtime allocates exactly the same lanes — so planned and actual timing
agree, which is what makes the planner's feasibility check meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.link import Link
from ..sim.message import MessageKind
from ..net.topology import Topology


#: Which lane a traffic class rides.
_LANE_OF_KIND = {
    MessageKind.DATA: "data",
    MessageKind.STATE: "state",
    MessageKind.EVIDENCE: "evidence",
    MessageKind.CONTROL: "control",
}


@dataclass(frozen=True)
class LaneFractions:
    """Fraction of each link's raw bandwidth granted to each traffic class."""

    data: float = 0.5
    state: float = 0.2
    evidence: float = 0.15
    control: float = 0.15

    def __post_init__(self) -> None:
        total = self.data + self.state + self.evidence + self.control
        if total > 1.0 + 1e-9:
            raise ValueError(f"lane fractions sum to {total} > 1")
        if min(self.data, self.state, self.evidence, self.control) <= 0:
            raise ValueError("all lane fractions must be positive")

    def for_kind(self, kind: MessageKind) -> float:
        return getattr(self, _LANE_OF_KIND[kind])


class LaneModel:
    """Derives per-sender lane shares and rates for a topology."""

    def __init__(self, topology: Topology,
                 fractions: LaneFractions | None = None) -> None:
        self.topology = topology
        self.fractions = fractions or LaneFractions()

    def share(self, link: Link, kind: MessageKind) -> float:
        """Share of ``link`` for one sender's lane of class ``kind``."""
        return self.fractions.for_kind(kind) / len(link.endpoints)

    def rate_bits_per_us(self, link: Link, kind: MessageKind) -> float:
        """Serialization rate of one sender's lane, in bits per µs."""
        return link.bandwidth_bps * self.share(link, kind) / 1e6

    def transmission_us(self, link: Link, kind: MessageKind,
                        size_bits: int) -> int:
        """Serialization delay for one message on one hop."""
        rate = self.rate_bits_per_us(link, kind)
        return max(1, int(-(-size_bits // max(rate, 1e-12))))  # ceil

    def install(self) -> None:
        """Allocate every lane on every link per this model (idempotent)."""
        for _, link in sorted(self.topology.links.items()):
            for sender in link.endpoints:
                for kind in (MessageKind.DATA, MessageKind.STATE,
                             MessageKind.EVIDENCE, MessageKind.CONTROL):
                    link.allocate_lane(sender, kind, self.share(link, kind))

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
the runtime allocates exactly the same lanes, at the same rates. The two
round differently: the planner charges a hop ``ceil(bits / rate)`` µs
(:meth:`LaneModel.transmission_us`), while the hop runtime
(:class:`repro.perf.batchcore.BatchRuntime`: a send, an evidence flood,
the heartbeat plans) charges ``max(1, round(bits / rate))``. So an
executed hop takes the planned time or up to 1 µs less, never more, and
the planner's feasibility check stays a safe upper bound.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Tuple

from ..sim.link import Link
from ..sim.message import MessageKind
from ..net.topology import Topology


#: Fraction of each link's raw bandwidth granted to each traffic class,
#: in the order :meth:`LaneModel.install` allocates the lanes.
LANE_FRACTIONS = MappingProxyType({
    MessageKind.DATA: 0.5,
    MessageKind.STATE: 0.2,
    MessageKind.EVIDENCE: 0.15,
    MessageKind.CONTROL: 0.15,
})


class LaneModel:
    """Derives per-sender lane shares and rates for a topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: (link, kind, size) -> :meth:`transmission_us`, each computed
        #: once: a link's bandwidth and endpoints never change.
        self._durations: Dict[Tuple[Link, MessageKind, int], int] = {}

    def share(self, link: Link, kind: MessageKind) -> float:
        """Share of ``link`` for one sender's lane of class ``kind``."""
        return LANE_FRACTIONS[kind] / len(link.endpoints)

    def rate_bits_per_us(self, link: Link, kind: MessageKind) -> float:
        """Serialization rate of one sender's lane, in bits per µs."""
        return link.bandwidth_bps * self.share(link, kind) / 1e6

    def transmission_us(self, link: Link, kind: MessageKind,
                        size_bits: int) -> int:
        """Serialization delay for one message on one hop, rounded up."""
        key = (link, kind, size_bits)
        duration = self._durations.get(key)
        if duration is None:
            rate = self.rate_bits_per_us(link, kind)
            duration = self._durations[key] = max(
                1, int(-(-size_bits // max(rate, 1e-12))))  # ceil
        return duration

    def install(self) -> None:
        """Allocate every lane on every link per this model (idempotent)."""
        for _, link in sorted(self.topology.links.items()):
            for sender in link.endpoints:
                for kind in LANE_FRACTIONS:
                    link.allocate_lane(sender, kind, self.share(link, kind))

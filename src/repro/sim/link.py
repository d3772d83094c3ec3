"""Links with finite bandwidth, static allocation, and FEC-masked losses.

The paper's system model assumes links whose bandwidth is *statically
allocated* between the attached nodes — the hardware-MAC / bus-guardian
defence against babbling idiots. We model that directly: each link divides
its raw bandwidth into **lanes**. A lane is identified by ``(sender,
traffic_class)`` and owns a fixed fraction of the link. A sender can never
consume another sender's share, no matter how it misbehaves, which is exactly
the guarantee the bus guardian provides.

Transmissions on a lane are serialized (a lane is a single queue); the
transmission delay of a message is ``size_bits / lane_rate`` plus the link's
propagation delay. Losses: the paper assumes FEC masks transmission errors,
so the default residual loss probability is zero; a nonzero value exercises
the loss-tolerance paths in tests. This module holds the reservations; the
crossing itself — serialization, propagation, loss — is the hop runtime's
(:class:`~repro.perf.batchcore.BatchRuntime`), the one path every system
sends through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .message import MessageKind


class ReservationError(Exception):
    """Raised when lane shares on a link would exceed its capacity, or a
    send finds no lane (or no link) reserved for it."""


@dataclass
class Lane:
    """A statically allocated slice of a link for one (sender, class)."""

    sender: str
    kind: MessageKind
    share: float            # fraction of the link's raw bandwidth
    rate_bits_per_us: float
    next_free: int = 0      # earliest time the lane can start a new frame


class Link:
    """A point-to-point or shared link with guarded bandwidth lanes."""

    def __init__(
        self,
        link_id: str,
        endpoints: tuple[str, ...],
        bandwidth_bps: float,
        propagation_us: int = 10,
        region: Optional[str] = None,
        is_wan: bool = False,
    ) -> None:
        if len(endpoints) < 2:
            raise ValueError("a link needs at least two endpoints")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.link_id = link_id
        self.endpoints = tuple(endpoints)
        self.bandwidth_bps = bandwidth_bps
        self.propagation_us = propagation_us
        #: Chance that a frame is lost; a run's link script sets it.
        self.loss_probability = 0.0
        #: Region tag for intra-region links (geo topologies); None for
        #: flat deployments and for inter-region (WAN) links.
        self.region = region
        #: True for inter-region links; their latency dominates the
        #: intra-region delays (the geo builder enforces that).
        self.is_wan = is_wan
        self._lanes: Dict[Tuple[str, MessageKind], Lane] = {}
        self._allocated = 0.0

    # ---------------------------------------------------------------- lanes

    def allocate_lane(self, sender: str, kind: MessageKind, share: float) -> Lane:
        """Reserve ``share`` of this link for (sender, kind).

        Raises :class:`ReservationError` if total allocation would exceed 1.
        Re-allocating an existing lane adjusts its share.
        """
        if sender not in self.endpoints:
            raise ReservationError(f"{sender} is not attached to {self.link_id}")
        if share <= 0:
            raise ReservationError(f"share must be positive, got {share}")
        key = (sender, kind)
        existing = self._lanes.get(key)
        new_total = self._allocated - (existing.share if existing else 0.0) + share
        if new_total > 1.0 + 1e-9:
            raise ReservationError(
                f"link {self.link_id} over-allocated: {new_total:.3f} > 1.0"
            )
        rate = self.bandwidth_bps * share / 1e6  # bits per µs
        lane = Lane(sender=sender, kind=kind, share=share, rate_bits_per_us=rate)
        if existing:
            lane.next_free = existing.next_free
        self._lanes[key] = lane
        self._allocated = new_total
        return lane

    def lane(self, sender: str, kind: MessageKind) -> Optional[Lane]:
        return self._lanes.get((sender, kind))

    def reset(self) -> None:
        """Clear per-run lane state (queues); keep allocations."""
        for lane in self._lanes.values():
            lane.next_free = 0

    def lane_for(self, sender: str, kind: MessageKind) -> Lane:
        """The reserved lane for ``(sender, kind)``; raises
        :class:`ReservationError` when there is none.

        The hop runtime (:class:`~repro.perf.batchcore.BatchRuntime`)
        resolves lanes once per run into its edge table and emission
        plans, and does the serialization arithmetic itself.
        """
        lane = self._lanes.get((sender, kind))
        if lane is None:
            raise ReservationError(
                f"no lane for ({sender}, {kind.value}) on {self.link_id}"
            )
        return lane

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.link_id}, endpoints={self.endpoints}, "
            f"bw={self.bandwidth_bps:.0f}bps, alloc={self._allocated:.2f})"
        )

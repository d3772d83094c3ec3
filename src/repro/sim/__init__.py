"""Discrete-event simulation substrate for the BTR reproduction.

Public surface:

* :class:`Simulator` — deterministic event engine (integer-µs time).
* :class:`Node`, :class:`CpuLane` — processing resources with reservations.
* :class:`Link`, :class:`Lane` — guarded-bandwidth links.
* :class:`Message`, :class:`MessageKind` — traffic.
* :class:`LocalClock` — bounded-drift clocks.
* :class:`Trace` and event dataclasses — the observable record of a run.
* time helpers (:func:`seconds`, :func:`ms`, :func:`us`, constants).
"""

from .clock import LocalClock
from .engine import SimulationError, Simulator
from .link import Lane, Link, ReservationError
from .message import Message, MessageKind
from .node import CpuLane, Node
from .random import DeterministicRandom
from .time import MS, NEVER, S, ms, seconds, to_seconds, us
from .trace import (
    HOP_KINDS,
    MILESTONE_KINDS,
    TRACE_MODES,
    Custom,
    EvidenceAccepted,
    EvidenceGenerated,
    EvidenceRejected,
    FaultInjected,
    MessageDelivered,
    MessageDropped,
    MessageSent,
    ModeSwitchCompleted,
    ModeSwitchStarted,
    OutputProduced,
    PathDeclared,
    TaskExecuted,
    TaskShed,
    Trace,
    TraceEvent,
    trace_fingerprint,
)

__all__ = [
    "LocalClock",
    "SimulationError",
    "Simulator",
    "Lane",
    "Link",
    "ReservationError",
    "Message",
    "MessageKind",
    "CpuLane",
    "Node",
    "DeterministicRandom",
    "MS",
    "NEVER",
    "S",
    "ms",
    "seconds",
    "to_seconds",
    "us",
    "HOP_KINDS",
    "MILESTONE_KINDS",
    "TRACE_MODES",
    "Custom",
    "EvidenceAccepted",
    "EvidenceGenerated",
    "EvidenceRejected",
    "FaultInjected",
    "MessageDelivered",
    "MessageDropped",
    "MessageSent",
    "ModeSwitchCompleted",
    "ModeSwitchStarted",
    "OutputProduced",
    "PathDeclared",
    "TaskExecuted",
    "TaskShed",
    "Trace",
    "TraceEvent",
    "trace_fingerprint",
]

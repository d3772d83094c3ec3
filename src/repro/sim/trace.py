"""Structured trace recording.

Every observable event in a run — message sends/deliveries, task executions,
sink outputs, faults, evidence, mode switches — is appended to a single
:class:`Trace`. The trace is the ground truth that the analysis layer (the
Definition 3.1 checker, latency decompositions, metrics) consumes; nothing in
the analysis peeks at simulator internals.

Recording modes trade fidelity for speed on benchmark sweeps:

* ``full`` (default) — every event is retained, as before;
* ``milestones`` — only the recovery-relevant kinds
  (:data:`MILESTONE_KINDS`) are retained; per-hop traffic
  (``MessageSent``/``MessageDelivered``/``MessageDropped``/
  ``TaskExecuted``) is tallied per kind but not allocated;
* ``counts-only`` — nothing is retained, everything is tallied.

Hot producers should ask :meth:`Trace.wants` before *constructing* an
event and call :meth:`Trace.tally` instead when the answer is no — that
is where the allocation win comes from. ``record()`` still accepts any
event in any mode (tallying unretained kinds), so cold producers need no
changes. ``count()``/``kind_counts()`` merge tallies with retained
events, so the event census is mode-independent.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Type,
    TypeVar,
)


@dataclass
class TraceEvent:
    """Base class: every event has a simulated timestamp (µs)."""

    time: int


@dataclass
class MessageSent(TraceEvent):
    src: str
    dst: str
    kind: str
    size_bits: int
    flow: Optional[str] = None


@dataclass
class MessageDelivered(TraceEvent):
    src: str
    dst: str
    kind: str
    flow: Optional[str] = None


@dataclass
class MessageDropped(TraceEvent):
    src: str
    dst: str
    kind: str
    reason: str = "loss"


@dataclass
class TaskExecuted(TraceEvent):
    node: str
    task: str
    period_index: int
    duration: int


@dataclass
class OutputProduced(TraceEvent):
    """A value delivered to a sink — the unit of external correctness."""

    sink: str
    flow: str
    period_index: int
    value: Any
    deadline: int
    criticality: str


@dataclass
class FaultInjected(TraceEvent):
    node: str
    fault_kind: str


@dataclass
class EvidenceGenerated(TraceEvent):
    detector_node: str
    accused_node: str
    fault_kind: str
    evidence_id: int


@dataclass
class EvidenceAccepted(TraceEvent):
    node: str
    accused_node: str
    evidence_id: int


@dataclass
class EvidenceRejected(TraceEvent):
    node: str
    claimed_signer: str
    reason: str


@dataclass
class PathDeclared(TraceEvent):
    """A node declared a problem with a path (omission suspicion)."""

    declarer: str
    path: tuple
    flow: str
    period_index: int


@dataclass
class ModeSwitchStarted(TraceEvent):
    node: str
    from_mode: str
    to_mode: str
    #: The deterministic switch boundary this node computed from the
    #: evidence (§4.4); -1 for legacy events that did not record it.
    boundary: int = -1


@dataclass
class ModeSwitchCompleted(TraceEvent):
    node: str
    mode: str


@dataclass
class TaskShed(TraceEvent):
    task: str
    criticality: str
    mode: str


@dataclass
class Custom(TraceEvent):
    label: str
    data: dict = field(default_factory=dict)


E = TypeVar("E", bound=TraceEvent)

#: Recording modes, in decreasing order of fidelity.
MODE_FULL = "full"
MODE_MILESTONES = "milestones"
MODE_COUNTS_ONLY = "counts-only"
TRACE_MODES = (MODE_FULL, MODE_MILESTONES, MODE_COUNTS_ONLY)

#: The kinds retained in ``milestones`` mode: everything the analysis and
#: observability layers need to reconstruct recovery timelines and check
#: Definition 3.1 — faults, evidence flow, mode switches, outputs — but
#: not the per-hop traffic that dominates event volume.
MILESTONE_KINDS = frozenset({
    OutputProduced,
    FaultInjected,
    EvidenceGenerated,
    EvidenceAccepted,
    EvidenceRejected,
    PathDeclared,
    ModeSwitchStarted,
    ModeSwitchCompleted,
    TaskShed,
    Custom,
})


class Trace:
    """An append-only, time-ordered event log for one run.

    Events are indexed by concrete type as they are recorded, so the
    analysis layer's ``of_kind`` queries (issued per flow, per node, per
    metric) cost O(matches) instead of rescanning the whole log each
    time. ``between`` binary-searches the time-ordered log.
    """

    def __init__(self, mode: str = MODE_FULL) -> None:
        if mode not in TRACE_MODES:
            raise ValueError(
                f"unknown trace mode {mode!r}; expected one of {TRACE_MODES}"
            )
        self.mode = mode
        self._events: List[TraceEvent] = []
        #: Per-concrete-type index, maintained on record().
        self._by_kind: Dict[type, List[TraceEvent]] = {}
        #: Per-kind-name counts of events tallied but not retained.
        self._tallies: Dict[str, int] = {}
        if mode == MODE_FULL:
            self._retained: Optional[frozenset] = None
        elif mode == MODE_MILESTONES:
            self._retained = MILESTONE_KINDS
        else:
            self._retained = frozenset()

    def retains(self, kind: Type[TraceEvent]) -> bool:
        """Would an event of this kind be kept (vs merely tallied)?"""
        return self._retained is None or kind in self._retained

    # ``wants`` is the hot-producer spelling of ``retains``: call it
    # before building the event object, and ``tally`` instead when the
    # answer is no — skipping the dataclass allocation entirely.
    wants = retains

    def tally(self, kind: Type[TraceEvent], n: int = 1) -> None:
        """Count ``n`` events of ``kind`` without allocating them."""
        name = kind.__name__
        self._tallies[name] = self._tallies.get(name, 0) + n

    def record(self, event: TraceEvent) -> None:
        if not self.retains(type(event)):
            self.tally(type(event))
            return
        if self._events and event.time < self._events[-1].time:
            # Events are produced by the engine in time order; a violation
            # indicates a bug in the producer, not the trace.
            raise ValueError(
                f"out-of-order trace event at {event.time} "
                f"(last was {self._events[-1].time})"
            )
        self._events.append(event)
        self._by_kind.setdefault(type(event), []).append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def of_kind(self, kind: Type[E]) -> List[E]:
        """All events of exactly the given type, in time order."""
        # Copy so later record() calls don't mutate what callers hold.
        return list(self._by_kind.get(kind, ()))  # type: ignore[arg-type]

    def count(self, kind: Type[E]) -> int:
        """Number of events of exactly the given type. O(1).

        Includes tallied-but-unretained events, so counts are
        mode-independent.
        """
        return (len(self._by_kind.get(kind, ()))
                + self._tallies.get(kind.__name__, 0))

    def between(self, start: int, end: int) -> List[TraceEvent]:
        """Events with start ≤ time < end."""
        events = self._events
        lo = bisect_left(events, start, key=lambda e: e.time)
        hi = bisect_left(events, end, key=lambda e: e.time)
        return events[lo:hi]

    def outputs(self) -> List[OutputProduced]:
        return self.of_kind(OutputProduced)

    def faults(self) -> List[FaultInjected]:
        return self.of_kind(FaultInjected)

    def last(self, kind: Type[E]) -> Optional[E]:
        events = self._by_kind.get(kind)
        return events[-1] if events else None  # type: ignore[return-value]

    def kind_counts(self) -> Dict[str, int]:
        """Event counts per concrete type name, alphabetically ordered.

        The observability layer exports this as the run's event census;
        keeping the ordering deterministic keeps the JSON diffable.
        Tallied-but-unretained events are included, so the census is the
        same in every recording mode.
        """
        counts = {cls.__name__: len(events)
                  for cls, events in self._by_kind.items()}
        for name, n in self._tallies.items():
            counts[name] = counts.get(name, 0) + n
        return {name: counts[name] for name in sorted(counts)}


def trace_fingerprint(events: Iterable) -> str:
    """A content hash of a trace (or any iterable of trace events).

    The committed engine digests (``tests/golden/``), E17/E19/E22 and
    the determinism property tests compare runs by this fingerprint:
    dataclass ``repr`` covers every field, and the events iterate in
    record order, so two traces fingerprint equal iff they are
    event-for-event, field-for-field identical. Stable across processes
    and ``PYTHONHASHSEED`` values (tests/test_sim_determinism.py).
    """
    h = hashlib.sha256()
    for event in events:
        h.update(repr(event).encode())
        h.update(b"\n")
    return h.hexdigest()

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
  (:data:`HOP_KINDS`: ``MessageSent``/``MessageDelivered``/
  ``MessageDropped``/``TaskExecuted``) is tallied per kind but not
  allocated.

Storage is columnar: a time column (``array('q')``) beside a row column,
one entry each per retained event, in record order. A row is either the
event object :meth:`Trace.record` was given, kept and returned as the
object it is, or a *hop row* — the plain tuple ``(kind, *fields after
time)`` a hot producer handed to :meth:`Trace.record_row` instead of
building the dataclass. Only :data:`HOP_KINDS` may arrive as rows. An
event object for a hop row exists only while somebody reads it:
``__iter__`` / ``of_kind`` / ``last`` build
``kind(time, *fields)`` from column + row on the way out; ``len``,
``count`` and ``kind_counts`` never do. The out-of-order check runs on
every recorded time, whichever way it arrives.

The trace keeps one census, a count per kind, in every mode:
``record``, ``record_row`` and ``tally`` add to it whether or not they
retain the event, and ``count`` / ``kind_counts`` read it, so the event
census is mode-independent. ``record()`` accepts any event in any mode,
so cold producers build the event and need know none of this; hot
producers hand hops to ``record_row`` (tallied outside ``full``) or
count locally and :meth:`Trace.tally` the sum.
"""

from __future__ import annotations

import hashlib
from array import array
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
TRACE_MODES = (MODE_FULL, MODE_MILESTONES)

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


#: The per-hop kinds that dominate event volume — everything outside
#: :data:`MILESTONE_KINDS`. These are the only kinds a hot producer may
#: hand to :meth:`Trace.record_row` as a row, and the kinds the trace
#: keeps no per-kind list of (``of_kind`` scans the columns for them).
HOP_KINDS = frozenset({
    MessageSent,
    MessageDelivered,
    MessageDropped,
    TaskExecuted,
})

#: Below any recordable time: ``array('q')`` cannot hold less.
_BEFORE_ALL = -(1 << 63)
#: The latest recordable time: ``array('q')`` cannot hold more.
LAST_TIME = (1 << 63) - 1


class Trace:
    """An append-only, time-ordered event log for one run.

    Two parallel columns hold the log (module docstring): ``_times`` and
    ``_rows``. Milestone-kind events are also indexed by concrete type
    as they are recorded, so the analysis layer's ``of_kind`` queries
    (issued per flow, per node, per metric) are a list copy; a query for
    a hop kind scans the columns.
    """

    def __init__(self, mode: str = MODE_FULL) -> None:
        if mode not in TRACE_MODES:
            raise ValueError(
                f"unknown trace mode {mode!r}; expected one of {TRACE_MODES}"
            )
        self.mode = mode
        #: Time column: the timestamp of every retained event.
        self._times = array("q")
        #: Row column: a TraceEvent, or a hop row ``(kind, *fields)``.
        self._rows: List[Any] = []
        self._last_time = _BEFORE_ALL
        #: Per-concrete-type index of the milestone-kind (strictly: not
        #: hop-kind) event objects, maintained on record().
        self._by_kind: Dict[type, List[TraceEvent]] = {}
        #: The census: kind -> events of it recorded or tallied. Only the
        #: hop kinds start in it, so ``record_row``'s ``+= 1`` refuses a
        #: row of a milestone kind with a KeyError (unless an event of
        #: that kind was counted before).
        self._census: Dict[type, int] = dict.fromkeys(HOP_KINDS, 0)
        self._retained: Optional[frozenset] = (
            None if mode == MODE_FULL else MILESTONE_KINDS)

    def retains(self, kind: Type[TraceEvent]) -> bool:
        """Would an event of this kind be kept (vs merely tallied)?"""
        return self._retained is None or kind in self._retained

    def tally(self, kind: Type[TraceEvent], n: int = 1) -> None:
        """Count ``n`` events of ``kind`` without allocating them."""
        census = self._census
        census[kind] = census.get(kind, 0) + n

    def _out_of_order(self, time: int) -> ValueError:
        # Events are produced by the engine in time order; a violation
        # indicates a bug in the producer, not the trace.
        return ValueError(
            f"out-of-order trace event at {time} "
            f"(last was {self._last_time})"
        )

    def record(self, event: TraceEvent) -> None:
        kind = type(event)
        census = self._census
        census[kind] = census.get(kind, 0) + 1
        if not self.retains(kind):
            return
        time = event.time
        if time < self._last_time:
            raise self._out_of_order(time)
        self._last_time = time
        self._times.append(time)
        self._rows.append(event)
        if kind not in HOP_KINDS:
            self._by_kind.setdefault(kind, []).append(event)

    def record_row(self, time: int, row: tuple) -> None:
        """Record a hop without building it: ``row`` is ``(kind, *fields
        after time)`` with ``kind`` one of :data:`HOP_KINDS`. The row is
        kept as handed over (producers may pass the same prebuilt tuple
        every time) and becomes ``kind(time, *fields)`` only when read."""
        self._census[row[0]] += 1
        if self._retained is not None:
            # No hop kind is retained outside ``full``.
            return
        if time < self._last_time:
            raise self._out_of_order(time)
        self._last_time = time
        self._times.append(time)
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        for time, row in zip(self._times, self._rows):
            yield row[0](time, *row[1:]) if type(row) is tuple else row

    def of_kind(self, kind: Type[E]) -> List[E]:
        """All events of exactly the given type, in time order."""
        if kind in HOP_KINDS:
            return [row[0](time, *row[1:]) if type(row) is tuple else row
                    for time, row in zip(self._times, self._rows)
                    if (row[0] if type(row) is tuple else type(row)) is kind]
        # Copy so later record() calls don't mutate what callers hold.
        return list(self._by_kind.get(kind, ()))  # type: ignore[arg-type]

    def count(self, kind: Type[E]) -> int:
        """Number of events of exactly the given type, retained or
        tallied; never builds one."""
        return self._census.get(kind, 0)

    def outputs(self) -> List[OutputProduced]:
        return self.of_kind(OutputProduced)

    def last(self, kind: Type[E]) -> Optional[E]:
        events = (self.of_kind(kind) if kind in HOP_KINDS
                  else self._by_kind.get(kind))
        return events[-1] if events else None  # type: ignore[return-value]

    def kind_counts(self) -> Dict[str, int]:
        """Event counts per concrete type name, alphabetically ordered,
        for every kind with at least one event, retained or tallied.

        The observability layer exports this as the run's event census;
        keeping the ordering deterministic keeps the JSON diffable.
        """
        counts = {kind.__name__: n for kind, n in self._census.items() if n}
        return {name: counts[name] for name in sorted(counts)}


def trace_fingerprint(events: Iterable) -> str:
    """A content hash of a trace (or any iterable of trace events).

    The committed engine digests (``tests/golden/``), E17 and the
    determinism property tests compare runs by this fingerprint:
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

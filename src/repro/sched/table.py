"""Schedule tables: the static per-node and per-link timetables.

The paper: "an implementation of BTR always requires a set of detailed
schedules for different scenarios to ensure that the timing guarantees can be
met" (§3.1). A :class:`NodeSchedule` is one period's timetable for one node —
task executions at fixed offsets. A :class:`PlannedTransmission` is the
corresponding timetable entry for a message on a link. Together they define
*expected behaviour*, which is what both the runtime dispatcher and the
timing-fault detector consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


class ScheduleError(Exception):
    """Raised for malformed schedule tables (overlaps, period overruns)."""


# The table entries are plain slotted dataclasses, not frozen ones: a
# frozen ``__init__`` pays one ``object.__setattr__`` per field, and a
# cold plan builds thousands of entries. Nothing assigns to an entry once
# it is built.


@dataclass(slots=True)
class ScheduleEntry:
    """One task execution slot within the period: [start, finish)."""

    task: str
    start: int
    finish: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.finish:
            raise ScheduleError(
                f"bad slot for {self.task}: [{self.start}, {self.finish})"
            )

    @property
    def duration(self) -> int:
        return self.finish - self.start


@dataclass(slots=True)
class PlannedTransmission:
    """One planned hop of one flow instance within the period.

    ``start`` is when serialization begins on the sender's lane; ``arrival``
    is delivery at the receiver (start + transmission + propagation). The
    timing-fault detector derives its acceptance window from ``arrival``.
    """

    flow: str
    sender: str
    receiver: str
    link_id: str
    start: int
    arrival: int
    size_bits: int = 0

    def __post_init__(self) -> None:
        if self.arrival <= self.start:
            raise ScheduleError(
                f"transmission of {self.flow} arrives before it starts"
            )


class NodeSchedule:
    """A validated, non-overlapping timetable for one node and one period."""

    def __init__(self, node: str, period: int) -> None:
        self.node = node
        self.period = period
        self.entries: List[ScheduleEntry] = []

    def add(self, entry: ScheduleEntry) -> None:
        if entry.finish > self.period:
            raise ScheduleError(
                f"{entry.task} on {self.node} overruns the period: "
                f"finish={entry.finish} > P={self.period}"
            )
        for existing in self.entries:
            if entry.start < existing.finish and existing.start < entry.finish:
                raise ScheduleError(
                    f"{entry.task} overlaps {existing.task} on {self.node}"
                )
        entries = self.entries
        entries.append(entry)
        if len(entries) > 1 and entries[-2].start > entry.start:
            entries.sort(key=lambda e: e.start)

    def slot_for(self, task: str) -> Optional[ScheduleEntry]:
        for entry in self.entries:
            if entry.task == task:
                return entry
        return None

    def __eq__(self, other: object) -> bool:
        """Value equality: same node, period and entries (``__eq__``
        leaves the class unhashable; no table is hashed)."""
        if not isinstance(other, NodeSchedule):
            return NotImplemented
        return (self.node == other.node and self.period == other.period
                and self.entries == other.entries)

    def busy_until(self) -> int:
        """End of the last slot (0 if empty)."""
        return self.entries[-1].finish if self.entries else 0

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

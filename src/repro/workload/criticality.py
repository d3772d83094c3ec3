"""Criticality levels for mixed-criticality workloads.

The paper's motivating example runs flight control next to the in-flight
entertainment system: "when a fault occurs, the system can disable some of
the less critical tasks and allocate their resources to the more critical
ones". We use four ordered levels, loosely mirroring DO-178-style design
assurance levels. ``A`` is the most critical.
"""

from __future__ import annotations

import enum
import functools


@functools.total_ordering
class Criticality(enum.Enum):
    """Ordered criticality levels; A is most critical.

    Comparison is by importance: ``Criticality.A > Criticality.B``.
    """

    A = "A"  # safety-critical (flight control, safety valve)
    B = "B"  # mission-critical
    C = "C"  # operational
    D = "D"  # convenience (in-flight entertainment)

    @property
    def rank(self) -> int:
        """Numeric importance; higher means more critical."""
        return {"A": 3, "B": 2, "C": 1, "D": 0}[self.value]

    def __lt__(self, other: "Criticality") -> bool:
        if not isinstance(other, Criticality):
            return NotImplemented
        return self.rank < other.rank

    @classmethod
    def ordered(cls) -> list["Criticality"]:
        """Levels from most to least critical."""
        return [cls.A, cls.B, cls.C, cls.D]

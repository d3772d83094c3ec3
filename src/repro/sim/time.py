"""Simulated-time units and helpers.

All simulated time in this library is expressed in **integer microseconds**.
Integer time makes schedule-table arithmetic exact (no floating-point drift
across hyperperiods) and makes traces bit-for-bit reproducible across runs.

The helpers here convert human-friendly quantities into microsecond counts::

    >>> seconds(5)
    5000000
    >>> ms(1.5)
    1500
"""

from __future__ import annotations

#: One millisecond in microseconds.
MS = 1_000
#: One second in microseconds.
S = 1_000_000

#: Sentinel for "never" / unbounded time.
NEVER = 2**62


def us(value: float) -> int:
    """Convert microseconds (possibly fractional) to integer microseconds."""
    return int(round(value))


def ms(value: float) -> int:
    """Convert milliseconds to integer microseconds."""
    return int(round(value * MS))


def seconds(value: float) -> int:
    """Convert seconds to integer microseconds."""
    return int(round(value * S))


def to_seconds(t: int) -> float:
    """Convert integer microseconds back to (float) seconds for reporting."""
    return t / S

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


def format_time(t: int) -> str:
    """Render a time value for logs, picking a readable unit.

    >>> format_time(1500)
    '1.500ms'
    >>> format_time(2_500_000)
    '2.500s'
    """
    if t == NEVER:
        return "never"
    if abs(t) >= S:
        return f"{t / S:.3f}s"
    if abs(t) >= MS:
        return f"{t / MS:.3f}ms"
    return f"{t}us"

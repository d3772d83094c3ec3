"""Run metrics: timeliness, traffic cost, criticality survival.

Where a recovery's time goes is read off its timeline
(:func:`repro.obs.reconstruct_timelines`), not measured here."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.runtime.system import RunResult
from ..sim.trace import MessageSent
from .correctness import CORRECT, classify_slots


@dataclass(frozen=True)
class TimelinessReport:
    """Output timeliness over one run."""

    total_slots: int
    delivered: int
    on_time: int
    mean_latency_us: float
    p99_latency_us: int

    @property
    def miss_rate(self) -> float:
        """Fraction of expected slots not delivered on time."""
        if self.total_slots == 0:
            return 0.0
        return 1.0 - self.on_time / self.total_slots


def timeliness(result: RunResult) -> TimelinessReport:
    """Delivery and latency of each expected slot's first output, read
    off the run's slot table."""
    period = result.workload.period
    slots = classify_slots(result)
    latencies = sorted(s.delivered_at - s.period_index * period
                       for s in slots if s.delivered_at is not None)
    on_time = sum(1 for s in slots
                  if s.delivered_at is not None and s.delivered_at <= s.due)
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0
    return TimelinessReport(
        total_slots=len(slots), delivered=len(latencies), on_time=on_time,
        mean_latency_us=mean, p99_latency_us=p99,
    )


def traffic_bits(result: RunResult) -> Dict[str, int]:
    """Bits put on links per traffic class.

    Needs every hop: a ``milestones`` trace only tallies sends, so it
    raises ``ValueError`` rather than report no traffic."""
    if not result.trace.retains(MessageSent):
        raise ValueError("traffic_bits needs a trace that keeps every "
                         "MessageSent (trace_mode='full'); this one only "
                         "tallies them")
    totals: Dict[str, int] = {}
    for event in result.trace.of_kind(MessageSent):
        totals[event.kind] = totals.get(event.kind, 0) + event.size_bits
    return totals


def criticality_survival(result: RunResult) -> Dict[str, float]:
    """Per criticality level: fraction of slots correct (value + time).

    This is the E4 metric: as faults accumulate, level A should stay at
    1.0 while D degrades first.
    """
    by_level: Dict[str, List[bool]] = {}
    for slot in classify_slots(result):
        by_level.setdefault(slot.criticality, []).append(
            slot.status == CORRECT)
    return {
        level: sum(oks) / len(oks)
        for level, oks in sorted(by_level.items())
    }

"""A low-overhead, deterministic metrics registry.

The registry is the runtime's *numeric* observability channel, next to the
:class:`~repro.sim.trace.Trace` (the event channel): counters for things
that happen (``messages_dropped{reason=...}``), gauges for things that are
(``sim_events_executed``), histograms for distributions measured in
sim-time µs (``evidence_validation_us``).

Design constraints, in order:

* **Deterministic.** Two identical runs must produce byte-identical
  snapshots: keys are ``(name, sorted label items)``, snapshots render in
  sorted order, and nothing here reads the host clock — sim-time values
  are passed in by the instrumented code.
* **Low overhead.** One dict lookup per increment on the hot path; label
  normalisation is a ``tuple(sorted(...))`` over at most a few pairs.
  Histograms use fixed bucket bounds so observation is O(#buckets).
* **Silent-failure hostile.** The registry exists so that swallowed
  exceptions and dropped messages become visible; incrementing must never
  itself raise on the hot path (labels are coerced to strings).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Default histogram bucket upper bounds, in sim-time µs. The last bucket
#: is implicit (+inf). Spans one event-loop tick to multi-second recoveries.
DEFAULT_BUCKETS_US: Tuple[int, ...] = (
    10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
)

_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _labels_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_key(name: str, labels: Iterable[Tuple[str, str]]) -> str:
    """``name{k=v,...}`` (Prometheus-style), or bare ``name`` unlabelled."""
    pairs = list(labels)
    if not pairs:
        return name
    inner = ",".join(f"{k}={v}" for k, v in pairs)
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bound bucket histogram over integer sim-time values."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Tuple[int, ...] = DEFAULT_BUCKETS_US) -> None:
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def to_dict(self) -> Dict[str, object]:
        buckets = {f"le_{bound}": count
                   for bound, count in zip(self.bounds, self.bucket_counts)}
        buckets["le_inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms for one system's lifetime.

    A :class:`~repro.core.runtime.system.BTRSystem` owns one registry;
    ``prepare()``-time instrumentation (planner fallbacks, cache
    quarantines) and ``run()``-time instrumentation (message drops,
    evidence verdicts, switches) share it, and ``RunResult.metrics``
    carries a snapshot.
    """

    def __init__(self) -> None:
        self._counters: Dict[_Key, int] = {}
        self._gauges: Dict[_Key, object] = {}
        self._histograms: Dict[_Key, Histogram] = {}

    # ------------------------------------------------------------ counters

    def inc(self, name: str, value: int = 1, **labels: object) -> None:
        """Add ``value`` to the counter ``name{labels}``."""
        key = (name, _labels_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def counter_value(self, name: str, **labels: object) -> int:
        return self._counters.get((name, _labels_key(labels)), 0)

    # -------------------------------------------------------------- gauges

    def set_gauge(self, name: str, value: object, **labels: object) -> None:
        self._gauges[(name, _labels_key(labels))] = value

    def gauge_value(self, name: str, **labels: object) -> object:
        return self._gauges.get((name, _labels_key(labels)))

    # ---------------------------------------------------------- histograms

    def observe(self, name: str, value: int, **labels: object) -> None:
        key = (name, _labels_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic, JSON-ready view of every metric."""
        return {
            "counters": {
                render_key(name, labels): value
                for (name, labels), value in sorted(self._counters.items())
            },
            "gauges": {
                render_key(name, labels): value
                for (name, labels), value in sorted(self._gauges.items())
            },
            "histograms": {
                render_key(name, labels): hist.to_dict()
                for (name, labels), hist in sorted(self._histograms.items())
            },
        }

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

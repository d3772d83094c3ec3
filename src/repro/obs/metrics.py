"""A low-overhead, deterministic metrics registry.

The registry is the runtime's *numeric* observability channel, next to the
:class:`~repro.sim.trace.Trace` (the event channel): counters for things
that happen (``messages_dropped{reason=...}``) and gauges for things that
are (``sim_events_executed``).

Design constraints, in order:

* **Deterministic.** Two identical runs must produce byte-identical
  snapshots: keys are ``(name, sorted label items)``, snapshots render in
  sorted order, and nothing here reads the host clock — sim-time values
  are passed in by the instrumented code.
* **Low overhead.** One dict lookup per increment on the hot path; label
  normalisation is a ``tuple(sorted(...))`` over at most a few pairs.
* **Silent-failure hostile.** The registry exists so that swallowed
  exceptions and dropped messages become visible; incrementing must never
  itself raise on the hot path (labels are coerced to strings).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

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


class MetricsRegistry:
    """Counters and gauges.

    A system owns one registry for its ``prepare()``-time instrumentation
    (planner fallbacks, cache quarantines). Each run counts its own
    (message drops, evidence verdicts, switches) into a :meth:`copy` of
    it, and ``RunResult.metrics`` carries that copy's snapshot.
    """

    def __init__(self) -> None:
        self._counters: Dict[_Key, int] = {}
        self._gauges: Dict[_Key, object] = {}

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

    def copy(self) -> "MetricsRegistry":
        """A new registry that starts from this one's values."""
        twin = MetricsRegistry()
        twin._counters = dict(self._counters)
        twin._gauges = dict(self._gauges)
        return twin

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
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

"""Deterministic discrete-event simulation engine.

The engine is a priority queue of timestamped events. Determinism is
guaranteed by (a) integer timestamps, (b) a monotonically increasing sequence
number that breaks ties in insertion order, and (c) a seeded RNG owned by the
engine (see :mod:`repro.sim.random`). Given the same seed and the same call
sequence, two runs produce identical traces.

Typical use::

    sim = Simulator(seed=42)
    sim.call_at(1000, handler)          # absolute time
    sim.call_after(500, other_handler)  # relative delay
    sim.run_until(10_000)
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from .random import DeterministicRandom
from .time import NEVER


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine (e.g. past events)."""


class Simulator:
    """A deterministic discrete-event simulator with integer-µs time.

    Heap entries are ``(time, seq, callback)`` tuples, so ordering is
    C-level tuple comparison on (time, seq); ``seq`` is unique, so the
    callback is never compared. Events are never cancelled, so an entry
    is always the bare callable and every entry in the heap is live.

    ``fast_heap`` is accepted for callers written when an object-ordered
    heap mode also existed; ``True`` is its only legal value.
    """

    def __init__(self, seed: int = 0, fast_heap: bool = True) -> None:
        if fast_heap is not True:
            raise SimulationError(
                "fast_heap=False selected the object-ordered legacy heap "
                "mode, which was removed; the (time, seq, entry) tuple "
                "heap is the only mode"
            )
        self._queue: list = []
        self._seq = itertools.count()
        #: Current simulated time in microseconds. Only the engine
        #: advances it; a plain attribute because nearly every event
        #: reads it.
        self.now = 0
        self.rng = DeterministicRandom(seed)
        #: Number of events executed so far (for diagnostics).
        self.events_executed = 0
        #: Optional message-delivery choice point, consulted by the hop
        #: runtime (``BatchRuntime.send`` and both fan-outs, once per
        #: receiver) just before a delivery is scheduled:
        #: ``hook(sender, receiver, arrival) -> arrival``. The model checker
        #: (:mod:`repro.mc`) installs one to explore alternative delivery
        #: orderings; ``None`` (the default) costs one attribute read per
        #: hop. Hooks must return a time >= the proposed arrival — they
        #: may delay (reorder) deliveries, never accelerate them.
        self.delivery_hook = None
        self._running = False

    def call_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past: an
        event silently scheduled in the past would execute out of order,
        corrupting the deterministic (time, seq) total order every
        replay proof depends on.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} (now is {self.now})"
            )
        heapq.heappush(self._queue, (time, next(self._seq), callback))

    #: The same push under the name the hop runtime calls it by.
    schedule = call_at

    def call_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after a relative ``delay`` (µs, ≥ 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.call_at(self.now + delay, callback)

    def peek_next_time(self) -> int:
        """Time of the next pending event, or NEVER."""
        queue = self._queue
        return queue[0][0] if queue else NEVER

    def run_until(self, end_time: int) -> None:
        """Run all events with time ≤ ``end_time``; advance clock to it."""
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if time > end_time:
                    break
                pop(queue)
                self.now = time
                executed += 1
                entry[2]()
            if end_time > self.now:
                self.now = end_time
        finally:
            # Callbacks may add to the counter themselves (one heap
            # event standing for a batch); the loop's own count joins
            # theirs once, at the end.
            self.events_executed += executed
            self._running = False

    def close(self) -> None:
        """End the simulation: drop the events still queued (those past
        the last ``run_until`` horizon) and the delivery hook. Both hold
        callbacks into the run that built this simulator, and that run
        holds the simulator, so once dropped a finished run is freed by
        reference counting. The clock, the counters and the RNG stay
        readable."""
        self._queue.clear()
        self.delivery_hook = None

    def pending_events(self) -> int:
        """Number of pending events. O(1)."""
        return len(self._queue)

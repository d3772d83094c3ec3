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


class EventHandle:
    """A cancellable timer: the heap entry :meth:`Simulator.call_at`
    queues and the handle it returns. ``__slots__`` keeps the per-timer
    footprint small — long runs allocate several per node per period."""

    __slots__ = ("_sim", "time", "callback", "cancelled", "fired")

    def __init__(self, sim: "Simulator", time: int,
                 callback: Callable[[], None]) -> None:
        self._sim = sim
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once
        (and after the event has already fired)."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self._sim._on_cancel()


class Simulator:
    """A deterministic discrete-event simulator with integer-µs time.

    Heap entries are ``(time, seq, entry)`` tuples, so ordering is C-level
    tuple comparison on (time, seq); ``seq`` is unique, so ``entry`` — an
    :class:`EventHandle` for cancellable :meth:`call_at` timers, the bare
    callable for :meth:`schedule` — is never compared.

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
        self._now = 0
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
        #: Live (non-cancelled) events in the queue; kept exact so
        #: :meth:`pending_events` is O(1) instead of an O(n) scan.
        self._live = 0
        #: Cancelled events still sitting in the heap awaiting a pop.
        self._cancelled_in_queue = 0

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    def call_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} (now is {self._now})"
            )
        handle = EventHandle(self, time, callback)
        heapq.heappush(self._queue, (time, next(self._seq), handle))
        self._live += 1
        return handle

    def call_after(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after a relative ``delay`` (µs, ≥ 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback)

    def schedule(self, time: int, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`call_at`: no :class:`EventHandle` — the
        bare callable rides in the heap tuple. Only for
        events that are never cancelled (message deliveries). Ordering is
        identical to :meth:`call_at` — same (time, seq) key from the same
        counter.

        A past ``time`` is rejected like :meth:`call_at` does: a single
        integer compare is cheap, and an event silently scheduled in the
        past would execute out of order, corrupting the deterministic
        (time, seq) total order every replay proof depends on. The
        ``engine-schedule-bypass`` lint rule keeps new handler code on
        :meth:`call_at` regardless, since ``schedule`` still skips
        cancellation support.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} (now is {self._now})"
            )
        heapq.heappush(self._queue, (time, next(self._seq), callback))
        self._live += 1

    def _on_cancel(self) -> None:
        """Bookkeeping for one cancellation; compacts the heap when
        cancelled entries outnumber live ones (they would otherwise sit
        in the heap until popped — a leak for workloads that schedule
        many guard timers and cancel most of them)."""
        self._live -= 1
        self._cancelled_in_queue += 1
        if self._cancelled_in_queue * 2 > len(self._queue) \
                and len(self._queue) >= 64:
            self._queue = [
                e for e in self._queue
                if type(e[2]) is not EventHandle or not e[2].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled_in_queue = 0

    def peek_next_time(self) -> int:
        """Time of the next pending (non-cancelled) event, or NEVER."""
        queue = self._queue
        while queue:
            head = queue[0][2]
            if type(head) is EventHandle and head.cancelled:
                heapq.heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            return queue[0][0]
        return NEVER

    def step(self) -> bool:
        """Execute the next pending event. Returns False if queue is empty."""
        while self._queue:
            time, _seq, event = heapq.heappop(self._queue)
            if type(event) is EventHandle:
                if event.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                event.fired = True
                event = event.callback
            self._live -= 1
            self._now = time
            self.events_executed += 1
            event()
            return True
        return False

    def run_until(self, end_time: int) -> None:
        """Run all events with time ≤ ``end_time``; advance clock to it."""
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        try:
            # Inlined peek+step: one heap op per event instead of two
            # method calls each doing their own cancelled-filtering.
            # self._queue is re-read every iteration because callbacks
            # may trigger _on_cancel compaction, which rebinds it.
            pop = heapq.heappop
            while True:
                queue = self._queue
                if not queue:
                    break
                entry = queue[0]
                if entry[0] > end_time:
                    break
                pop(queue)
                event = entry[2]
                if type(event) is EventHandle:
                    if event.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    event.fired = True
                    callback = event.callback
                else:
                    callback = event
                self._live -= 1
                self._now = entry[0]
                self.events_executed += 1
                callback()
            if end_time > self._now:
                self._now = end_time
        finally:
            self._running = False

    def run(self) -> None:
        """Run until the event queue drains completely."""
        if self._running:
            raise SimulationError("run called re-entrantly")
        self._running = True
        try:
            while self.step():
                pass
        finally:
            self._running = False

    def pending_events(self) -> int:
        """Number of pending (non-cancelled) events. O(1)."""
        return self._live

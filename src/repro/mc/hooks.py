"""The delivery choice point: one schedule, applied to one run.

:class:`DeliveryPerturbation` is what the model checker installs as
:attr:`repro.sim.engine.Simulator.delivery_hook` (via ``BTRSystem.run``'s
``delivery_hook`` parameter). The hop runtime consults the hook at the
moment a delivery's arrival time has been computed; the hook counts
delivery points in encounter order, adds the schedule's extra delay at
the chosen indices, and records the points whose base arrival falls in
an arrival window, so the explorer can generate the next level of
candidate perturbations from the path it just ran. The window is the
explorer's own (the cell's perturbation window, widened by one delay
quantum for the commutation check): a point outside it is never read,
so it is never recorded.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .choices import DeliveryChoice, validate_schedule

#: One observed delivery point: (index, sender, receiver, base arrival).
ObservedDelivery = Tuple[int, str, str, int]


class DeliveryPerturbation:
    """Applies one delivery schedule; records the points in a window.

    Instances are single-use: one hook drives exactly one run (the
    counters are not re-entrant across runs by design — a fresh run gets
    a fresh hook, so replays cannot inherit stale state).
    """

    __slots__ = ("_delays", "count", "observed", "_lo", "_hi")

    def __init__(self, deliveries: Tuple[DeliveryChoice, ...] = (),
                 window: Optional[Tuple[int, int]] = None) -> None:
        validate_schedule(tuple(deliveries))
        self._delays = dict(deliveries)
        #: Delivery points encountered so far (== next index assigned).
        #: Every point counts, recorded or not, so indices (and the
        #: schedules naming them) do not depend on the window.
        self.count = 0
        #: Observed points with base arrival in ``[lo, hi)`` of
        #: ``window``; ``None`` records nothing.
        self.observed: List[ObservedDelivery] = []
        self._lo, self._hi = (0, 0) if window is None else window

    def __call__(self, sender: str, receiver: str, arrival: int) -> int:
        index = self.count
        self.count = index + 1
        if self._lo <= arrival < self._hi:
            self.observed.append((index, sender, receiver, arrival))
        delay = self._delays.get(index)
        return arrival if delay is None else arrival + delay

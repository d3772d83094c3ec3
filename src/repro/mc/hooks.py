"""The delivery choice point: one schedule, applied to one run.

:class:`DeliveryPerturbation` is what the model checker installs as
:attr:`repro.sim.engine.Simulator.delivery_hook` (via ``BTRSystem.run``'s
``delivery_hook`` parameter). The hop runtime consults the hook at the
moment a delivery's arrival time has been computed; the hook counts
delivery points in encounter order, adds the schedule's extra delay at
the chosen indices, and (when asked) records every point it saw so the
explorer can generate the next level of candidate perturbations from the
path it just ran.
"""

from __future__ import annotations

from typing import List, Tuple

from .choices import DeliveryChoice, validate_schedule

#: One observed delivery point: (index, sender, receiver, base arrival).
ObservedDelivery = Tuple[int, str, str, int]


class DeliveryPerturbation:
    """Applies one delivery schedule; optionally records every point.

    Instances are single-use: one hook drives exactly one run (the
    counters are not re-entrant across runs by design — a fresh run gets
    a fresh hook, so replays cannot inherit stale state).
    """

    __slots__ = ("_delays", "count", "observed", "_record")

    def __init__(self, deliveries: Tuple[DeliveryChoice, ...] = (),
                 record: bool = False) -> None:
        validate_schedule(tuple(deliveries))
        self._delays = dict(deliveries)
        #: Delivery points encountered so far (== next index assigned).
        self.count = 0
        #: Observed points, filled only when ``record`` is set.
        self.observed: List[ObservedDelivery] = []
        self._record = record

    def __call__(self, sender: str, receiver: str, arrival: int) -> int:
        index = self.count
        self.count = index + 1
        if self._record:
            self.observed.append((index, sender, receiver, arrival))
        delay = self._delays.get(index)
        return arrival if delay is None else arrival + delay

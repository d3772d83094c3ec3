"""The explored choice space: adversary cells × delivery schedules.

A **cell** fixes the adversary's discrete choices — which node to
compromise, with which fault kind, at which injection tick inside the
bounded window (or no fault at all, the nominal cell). Within a cell,
the explorer branches over **delivery schedules**: tuples of
``(delivery_index, extra_delay_us)`` pairs applied by the engine's
delivery choice point (:mod:`repro.mc.hooks`). Indices are strictly
increasing — a schedule perturbs the i-th delivery of the run *as
perturbed so far*, which gives the exploration tree unambiguous
semantics and avoids enumerating permutations of the same delay set.

Cells and schedules serialise to plain JSON so counterexamples are
portable artifacts (:mod:`repro.mc.counterexample`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..faults.adversary import FaultScript, Injection, make_behavior
from ..persist import InputError
from ..sim.random import DeterministicRandom

#: One delivery perturbation: (0-based delivery index, extra delay µs).
DeliveryChoice = Tuple[int, int]


@dataclass(frozen=True, order=True)
class Cell:
    """One top-level adversary choice (the unit of work partitioning).

    ``victim is None`` is the fault-free cell, which certifies the
    nominal protocol under delivery perturbations alone.
    """

    victim: Optional[str] = None
    kind: Optional[str] = None
    inject_at: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.victim is None) != (self.kind is None) or \
                (self.victim is None) != (self.inject_at is None):
            raise InputError(
                "a cell is either fault-free (all fields None) or a full "
                "(victim, kind, inject_at) triple"
            )
        if self.inject_at is not None and self.inject_at < 0:
            raise InputError(f"negative injection time {self.inject_at}")

    @property
    def fault_free(self) -> bool:
        return self.victim is None

    def label(self) -> str:
        if self.fault_free:
            return "nominal"
        return f"{self.victim}/{self.kind}@{self.inject_at}"

    def to_dict(self) -> dict:
        return {"victim": self.victim, "kind": self.kind,
                "inject_at": self.inject_at}

    @classmethod
    def from_dict(cls, payload: dict) -> "Cell":
        """Decode :meth:`to_dict`'s output; ``InputError`` on any other
        shape (artifacts come from disk)."""
        if not isinstance(payload, dict):
            raise InputError(f"cell must be an object, got {payload!r}")
        victim = payload.get("victim")
        kind = payload.get("kind")
        inject_at = payload.get("inject_at")
        # ``type(...) is int``: a JSON ``true`` is no injection time.
        if not all(v is None or isinstance(v, str) for v in (victim, kind)) \
                or not (inject_at is None or type(inject_at) is int):
            raise InputError(f"malformed cell {payload!r}")
        return cls(victim=victim, kind=kind, inject_at=inject_at)


def cell_script(cell: Cell, seed: int) -> FaultScript:
    """The deterministic :class:`FaultScript` a cell injects.

    The behaviour's RNG fork is derived from (seed, victim, kind) alone,
    so the same cell always injects a byte-identical behaviour no matter
    which worker runs it — the property the byte-reproducibility
    guarantee of the campaign rests on.
    """
    if cell.fault_free:
        return FaultScript()
    rng = DeterministicRandom(seed).fork(f"mc:{cell.victim}:{cell.kind}")
    return FaultScript([
        Injection(cell.inject_at, cell.victim,
                  make_behavior(cell.kind, rng)),
    ])


def injection_ticks(period: int, window: Tuple[float, float],
                    ticks: int) -> List[int]:
    """The injection grid both searches share: ``ticks`` evenly spaced
    times across ``[window[0] * P, window[1] * P]``, deduplicated (a
    window narrower than ``ticks - 1`` µs yields fewer times, never a
    time outside it)."""
    lo = int(window[0] * period)
    hi = int(window[1] * period)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad injection window {window!r}")
    if ticks <= 1:
        return [lo]
    step = (hi - lo) // (ticks - 1)
    return sorted({lo + i * step for i in range(ticks)})


def validate_schedule(deliveries: Tuple[DeliveryChoice, ...]) -> None:
    """Reject malformed delivery schedules (the exploration tree only
    ever produces valid ones; artifacts from disk may not)."""
    last = -1
    for index, delay in deliveries:
        if index <= last:
            raise InputError(
                f"delivery indices must be strictly increasing "
                f"(got {index} after {last})"
            )
        if delay <= 0:
            raise InputError(
                f"delivery delays must be positive (hooks may only "
                f"delay, never accelerate; got {delay})"
            )
        last = index

"""Physical plant models: the "inertia" premise, made measurable.

The paper's core premise (§1–2): "the physical part of the system has
properties like inertia or thermal capacity, and thus can tolerate small
mistakes or omissions, as long as they are fixed within a bounded amount of
time." These discrete-time plant models let experiments *measure* that
tolerance: drive a plant from a run's control outputs, check whether it
stays inside its safety envelope, and search for the maximum tolerable
outage R* — the physical quantity BTR's R must stay under.

Three plants, spanning the paper's examples:

* :class:`InvertedPendulum` — fast, unstable; small R*. Stands in for
  attitude control.
* :class:`WaterTank` — slow integrator with a safety limit; large R*.
  Stands in for the pressure-vessel example ("respond within seconds ...
  by opening a safety valve").
* :class:`PitchAxis` — damped second-order system; the "flight envelope"
  from the airplane example.

Control interface: each control period the plant receives a command that is
``correct`` (the stabilizing feedback law), ``stale`` (zero-order hold of
the last applied command — models missing outputs), or ``hostile``
(worst-case actuation — models adversarially wrong outputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

CORRECT_CMD = "correct"
STALE_CMD = "stale"
HOSTILE_CMD = "hostile"


class Plant:
    """Base class: discrete-time dynamics with a safety envelope."""

    #: Control saturation (|u| <= u_max).
    u_max = 1.0

    def reset(self) -> None:
        raise NotImplementedError

    def control_law(self) -> float:
        """The stabilizing feedback command for the current state."""
        raise NotImplementedError

    def step(self, dt: float, u: float) -> None:
        """Advance the dynamics by ``dt`` seconds under command ``u``."""
        raise NotImplementedError

    def in_envelope(self) -> bool:
        raise NotImplementedError

    def hostile_command(self) -> float:
        """The worst admissible command an adversary could issue."""
        raise NotImplementedError

    # ---------------------------------------------------------- simulation

    def run_sequence(self, dt: float, commands: Sequence[str]) -> bool:
        """Apply one command-kind per control period; True iff the plant
        stayed inside its envelope throughout."""
        self.reset()
        last_u = 0.0
        for kind in commands:
            if kind == CORRECT_CMD:
                u = self.control_law()
            elif kind == HOSTILE_CMD:
                u = self.hostile_command()
            elif kind == STALE_CMD:
                u = last_u
            else:
                raise ValueError(f"unknown command kind {kind!r}")
            u = max(-self.u_max, min(self.u_max, u))
            last_u = u
            self.step(dt, u)
            if not self.in_envelope():
                return False
        return True

    def max_tolerable_outage(self, dt: float) -> int:
        """Largest number of consecutive bad control periods the plant
        survives (R* in control periods): settle under correct control,
        inject hostile commands for n periods, then resume correct
        control and require the envelope to hold throughout and for a
        recovery tail.

        This is the physical quantity that justifies BTR: any recovery
        bound R <= R* * dt keeps the plant safe.
        """
        settle_periods = 50
        max_outage_periods = 10_000

        def survives(n: int) -> bool:
            commands = ([CORRECT_CMD] * settle_periods
                        + [HOSTILE_CMD] * n
                        + [CORRECT_CMD] * settle_periods)
            return self.run_sequence(dt, commands)

        if not survives(0):
            return 0
        low, high = 0, 1
        while high <= max_outage_periods and survives(high):
            low, high = high, high * 2
        if high > max_outage_periods:
            return max_outage_periods
        while high - low > 1:
            mid = (low + high) // 2
            if survives(mid):
                low = mid
            else:
                high = mid
        return low


@dataclass
class InvertedPendulum(Plant):
    """Linearized pendulum on a cart: unstable, fast — tight R*."""

    gravity: float = 9.81
    length: float = 1.0
    #: Safety envelope: |theta| below this (radians).
    theta_max: float = 0.5
    #: PD gains for the stabilizing law.
    kp: float = 30.0
    kd: float = 8.0
    u_max: float = 20.0
    theta: float = field(default=0.02, init=False)
    omega: float = field(default=0.0, init=False)

    def reset(self) -> None:
        self.theta = 0.02
        self.omega = 0.0

    def control_law(self) -> float:
        return -(self.kp * self.theta + self.kd * self.omega)

    def hostile_command(self) -> float:
        # Push in the direction of the fall.
        return self.u_max if self.theta >= 0 else -self.u_max

    def step(self, dt: float, u: float) -> None:
        # theta'' = (g/l) sin(theta) + u   (torque-normalized)
        alpha = (self.gravity / self.length) * math.sin(self.theta) + u
        self.omega += alpha * dt
        self.theta += self.omega * dt

    def in_envelope(self) -> bool:
        return abs(self.theta) <= self.theta_max


@dataclass
class WaterTank(Plant):
    """A pressure-vessel stand-in: slow integrator, hard safety limit."""

    #: Uncontrolled inflow (level units per second).
    inflow: float = 0.05
    #: Valve authority: max outflow under full command.
    u_max: float = 0.2
    #: Safety envelope: level within [0, level_max].
    level_max: float = 1.0
    setpoint: float = 0.5
    kp: float = 2.0
    level: float = field(default=0.5, init=False)

    def reset(self) -> None:
        self.level = self.setpoint

    def control_law(self) -> float:
        # Open the valve proportionally to excess level, plus the inflow
        # feed-forward that holds the setpoint.
        return self.inflow + self.kp * (self.level - self.setpoint)

    def hostile_command(self) -> float:
        return 0.0  # slam the valve shut; the tank fills toward the limit

    def step(self, dt: float, u: float) -> None:
        u = max(0.0, min(self.u_max, u))
        self.level += (self.inflow - u) * dt
        self.level = max(0.0, self.level)

    def in_envelope(self) -> bool:
        return self.level <= self.level_max


@dataclass
class PitchAxis(Plant):
    """Damped second-order pitch dynamics with a flight envelope."""

    natural_freq: float = 2.0
    damping: float = 0.15     # lightly damped airframe
    pitch_max: float = 0.35   # envelope (radians)
    kp: float = 12.0
    kd: float = 5.0
    u_max: float = 6.0
    pitch: float = field(default=0.05, init=False)
    rate: float = field(default=0.0, init=False)

    def reset(self) -> None:
        self.pitch = 0.05
        self.rate = 0.0

    def control_law(self) -> float:
        return -(self.kp * self.pitch + self.kd * self.rate)

    def hostile_command(self) -> float:
        return self.u_max if self.pitch >= 0 else -self.u_max

    def step(self, dt: float, u: float) -> None:
        w = self.natural_freq
        accel = (-2 * self.damping * w * self.rate
                 - w * w * self.pitch + u)
        self.rate += accel * dt
        self.pitch += self.rate * dt

    def in_envelope(self) -> bool:
        return abs(self.pitch) <= self.pitch_max


def commands_from_slots(slot_statuses: Sequence[str]) -> List[str]:
    """Map output-slot statuses (from the Definition 3.1 checker) to plant
    command kinds: correct slots actuate correctly, wrong values actuate
    hostilely, missing/late outputs hold the last command."""
    mapping = {
        "correct": CORRECT_CMD,
        "wrong_value": HOSTILE_CMD,
        "late": STALE_CMD,
        "missing": STALE_CMD,
    }
    return [mapping[s] for s in slot_statuses]

"""Local clocks with bounded drift.

The paper's system model gives every node "access to a local clock" and
relies on the (well-studied) availability of clock synchronization to keep
clocks within a known bound ε of true time. We model a local clock as an
affine function of true (simulated) time::

    local(t) = t + offset + drift_ppm * 1e-6 * (t - t0)

A :class:`ClockSync` service periodically re-centres the offset, which keeps
``|local(t) - t| <= epsilon`` for correct nodes. Timing-fault detection
(:mod:`repro.core.detector.timing`) must tolerate ε of slack; tests assert
that the bound holds across sync rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Clock synchronization interval (µs). Between rounds, a node's clock
#: error grows at its drift rate; the timing slack must absorb the
#: resulting ε (the paper's synchrony assumption, made concrete).
CLOCK_SYNC_INTERVAL_US = 1_000_000


@dataclass
class LocalClock:
    """A drifting local clock for one node.

    Parameters
    ----------
    drift_ppm:
        Constant rate error in parts-per-million. Positive runs fast.
    offset:
        Initial offset (µs) from true time.
    """

    drift_ppm: float = 0.0
    offset: int = 0
    _anchor_true: int = field(default=0, repr=False)
    _anchor_local: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._anchor_local = self._anchor_true + self.offset

    def read(self, true_time: int) -> int:
        """Local time shown by this clock when true time is ``true_time``."""
        elapsed = true_time - self._anchor_true
        drifted = elapsed + int(round(elapsed * self.drift_ppm * 1e-6))
        return self._anchor_local + drifted

    def error(self, true_time: int) -> int:
        """Signed difference local − true at ``true_time``."""
        return self.read(true_time) - true_time

    def synchronize_to(self, true_time: int, reference: int) -> None:
        """Step the clock so it reads ``reference`` at ``true_time``."""
        self._anchor_local = reference
        self._anchor_true = true_time


class ClockSync:
    """Periodic clock synchronization keeping all clocks within ε.

    This abstracts the hardware-assisted / reference-broadcast schemes the
    paper cites. Each round, every registered clock is stepped to the
    reference (true) time plus a bounded residual; between rounds, drift can
    accumulate at most ``drift_ppm * interval`` µs.
    """

    def __init__(self, interval: int, residual: int = 0) -> None:
        if interval <= 0:
            raise ValueError("sync interval must be positive")
        self.interval = interval
        self.residual = residual
        self._clocks: list[LocalClock] = []

    def register(self, clock: LocalClock) -> None:
        self._clocks.append(clock)

    def epsilon(self, max_drift_ppm: float) -> int:
        """Worst-case |local − true| between sync rounds."""
        return self.residual + int(round(max_drift_ppm * 1e-6 * self.interval)) + 1

    def sync_round(self, true_time: int) -> None:
        """Re-centre every registered clock at ``true_time``."""
        for clock in self._clocks:
            clock.synchronize_to(true_time, true_time + self.residual)

    def install(self, sim) -> None:
        """Schedule periodic sync rounds on ``sim`` forever (self-renewing)."""

        def round_and_reschedule() -> None:
            self.sync_round(sim.now)
            sim.call_after(self.interval, round_and_reschedule)

        sim.call_after(self.interval, round_and_reschedule)

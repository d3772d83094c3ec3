"""Local clocks with bounded drift.

The paper's system model gives every node "access to a local clock" and
relies on the (well-studied) availability of clock synchronization to keep
clocks within a known bound ε of true time. We model a local clock as an
affine function of true (simulated) time::

    local(t) = t + offset + drift_ppm * 1e-6 * (t - t0)

The runtime re-centres every correct node's clock once per
:data:`CLOCK_SYNC_INTERVAL_US`, which keeps ``|local(t) - t| <= epsilon``.
Timing-fault detection (:mod:`repro.core.detector.timing`) must tolerate ε
of slack.
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

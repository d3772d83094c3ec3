"""Runtime configuration for a BTR deployment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BTRConfig:
    """The settings a caller chooses per deployment.

    Detection and distribution parameters (slot thresholds, slacks,
    quotas, lane shares, crypto costs) are fixed at deployment, so each
    is one constant in the module that enforces it. A field exists only
    when two non-test callers need different values.
    """

    #: Fault budget: max simultaneous faulty nodes the strategy anticipates.
    f: int = 1
    #: Desired recovery bound R in µs. ``None`` accepts whatever the
    #: deployment can achieve (see RecoveryBudget); prepare() raises if a
    #: requested bound is not achievable.
    R_us: Optional[int] = None
    #: Run seed (drives every random choice via labelled forks).
    seed: int = 0

    # --- clocks ----------------------------------------------------------
    #: Per-node drift magnitude (ppm); node i gets a deterministic drift
    #: in [-drift, +drift] derived from the run seed. 0 disables drift.
    clock_drift_ppm: float = 50.0

    # --- strategy construction (E11–E13 ablations) -------------------------
    minimize_distance: bool = True
    use_locality: bool = True
    #: Strategic (exposure-aware) placement — the E13 ablation flag.
    strategic_placement: bool = True

    # --- offline planning performance (repro.perf) -----------------------
    #: Directory of the on-disk strategy cache, or ``None`` to replan
    #: every time. Keys include the planner version, so a stale cache is
    #: never silently reused across algorithm changes. Only the frozen
    #: end-to-end benchmark harness sets it.
    cache: Optional[str] = None

    # --- trace recording --------------------------------------------------
    #: Trace recording mode: "full" keeps every event; "milestones" keeps
    #: only recovery-relevant kinds and tallies per-hop traffic (see
    #: :mod:`repro.sim.trace`).
    trace_mode: str = "full"

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError("BTR needs f >= 1 (use the unreplicated "
                             "baseline for f = 0)")
        if self.R_us is not None and self.R_us <= 0:
            raise ValueError("R must be positive")
        from ...sim.trace import TRACE_MODES
        if self.trace_mode not in TRACE_MODES:
            raise ValueError(
                f"trace_mode must be one of {TRACE_MODES}, "
                f"got {self.trace_mode!r}"
            )

"""Analysis layer: correctness (Def. 3.1), plants, metrics, reporting.

``render_timeline`` is the observability layer's phase report of a
finished run (:func:`repro.obs.export.render_timeline`), re-exported here
for callers that import it from this layer."""

from .correctness import (
    BTRVerdict,
    CORRECT,
    LATE,
    MISSING,
    SlotVerdict,
    WRONG_VALUE,
    btr_verdict,
    classify_slots,
    recovery_times,
    smallest_sufficient_R,
)
from .metrics import (
    TimelinessReport,
    criticality_survival,
    timeliness,
    traffic_bits,
)
from .oracle import ReferenceOracle
from .plants import (
    CORRECT_CMD,
    HOSTILE_CMD,
    STALE_CMD,
    InvertedPendulum,
    PitchAxis,
    Plant,
    WaterTank,
    commands_from_slots,
)
from .reporting import format_table, ratio
from ..obs.export import render_timeline

__all__ = [
    "BTRVerdict",
    "CORRECT",
    "LATE",
    "MISSING",
    "SlotVerdict",
    "WRONG_VALUE",
    "btr_verdict",
    "classify_slots",
    "recovery_times",
    "smallest_sufficient_R",
    "TimelinessReport",
    "criticality_survival",
    "timeliness",
    "traffic_bits",
    "ReferenceOracle",
    "CORRECT_CMD",
    "HOSTILE_CMD",
    "STALE_CMD",
    "InvertedPendulum",
    "PitchAxis",
    "Plant",
    "WaterTank",
    "commands_from_slots",
    "render_timeline",
    "format_table",
    "ratio",
]

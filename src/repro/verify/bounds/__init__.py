"""Layer 4 of the verify stack: analytic worst-case recovery bounds.

Where the rule families in :mod:`repro.verify` audit a strategy's
*structure* (Layers 1–3: schedule, placement, routes, mode graph), this
package derives its *temporal guarantee*: a per-(fault-class, mode)
worst-case recovery bound, decomposed into the same detect / convict /
quorum / switch / settle phase taxonomy the observability layer
measures — computed purely from the prepared artifacts, so it holds for
configurations too large to simulate or explore. Exposed as the
``repro bounds`` CLI subcommand and as the ``bound.*`` verify rules.
"""

from .analyzer import ConvictionProfile, compute_bounds, conviction_profile
from .model import (
    CLASS_OF_KIND,
    FAULT_CLASSES,
    BoundsReport,
    ClassBound,
    class_of_kind,
)
from .rules import bounds_findings
from .soundness import (
    SoundnessCheck,
    SoundnessViolation,
    check_timelines,
)

__all__ = [
    "CLASS_OF_KIND",
    "FAULT_CLASSES",
    "BoundsReport",
    "ClassBound",
    "ConvictionProfile",
    "SoundnessCheck",
    "SoundnessViolation",
    "bounds_findings",
    "check_timelines",
    "class_of_kind",
    "compute_bounds",
    "conviction_profile",
]

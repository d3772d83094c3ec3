"""The online fault detector (§4.2): checking, timing, omission blame."""

from .checker import (
    CheckOutcome,
    audit_forward,
    build_forward_statement,
    build_output_statement,
    run_check,
)
from .omission import DEFAULT_SLOT_THRESHOLD, BlameState, BlameTracker
from .timing import (
    OK,
    SELF_INCRIMINATING,
    SUSPICIOUS_ARRIVAL,
    TimingPolicy,
)

__all__ = [
    "CheckOutcome",
    "audit_forward",
    "build_forward_statement",
    "build_output_statement",
    "run_check",
    "DEFAULT_SLOT_THRESHOLD",
    "BlameState",
    "BlameTracker",
    "OK",
    "SELF_INCRIMINATING",
    "SUSPICIOUS_ARRIVAL",
    "TimingPolicy",
]

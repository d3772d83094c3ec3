"""Evidence generation, validation, and distribution (§4.2–4.3)."""

from .distributor import (
    DEFAULT_SLANDER_THRESHOLD,
    DistributionDecision,
    EvidenceLog,
)
from .records import (
    ATTRIBUTION,
    COMMISSION,
    EQUIVOCATION,
    Evidence,
    EvidenceValidator,
    FORWARD_MISMATCH,
    KINDS,
    TIMING,
    input_digest,
    make_declaration,
)

__all__ = [
    "DEFAULT_SLANDER_THRESHOLD",
    "DistributionDecision",
    "EvidenceLog",
    "ATTRIBUTION",
    "COMMISSION",
    "EQUIVOCATION",
    "Evidence",
    "EvidenceValidator",
    "FORWARD_MISMATCH",
    "KINDS",
    "TIMING",
    "input_digest",
    "make_declaration",
]

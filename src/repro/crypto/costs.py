"""CPU cost model for cryptographic operations, in simulated microseconds.

CPS CPUs are slow (the paper: designers "use the least powerful CPU that
will do the job"), so signature costs are material and must be scheduled like
any other work — verification tasks appear in the planner's augmented graph
and are charged on the node's control lane at runtime. Defaults approximate
Ed25519 on a ~100 MHz-class embedded core.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CryptoCosts:
    """Per-operation simulated CPU costs (µs of nominal work)."""

    sign_us: int = 120
    verify_us: int = 250
    hash_us: int = 10


#: Default cost model used across the library.
DEFAULT_COSTS = CryptoCosts()

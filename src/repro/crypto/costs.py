"""CPU cost model for cryptographic operations, in simulated microseconds.

CPS CPUs are slow (the paper: designers "use the least powerful CPU that
will do the job"), so signature costs are material and must be scheduled like
any other work — verification tasks appear in the planner's augmented graph
and are charged on the node's control lane at runtime. The cost
approximates Ed25519 on a ~100 MHz-class embedded core.
"""

from __future__ import annotations

#: µs of nominal control-lane work to verify one signature.
VERIFY_US = 250

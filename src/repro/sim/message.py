"""Message and frame types exchanged between nodes.

Messages are the unit of transmission on links. Every message carries an
explicit size in bits — bandwidth accounting is exact, which is what lets the
planner reserve link capacity and the evidence distributor guarantee a
bounded distribution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional


class MessageKind(Enum):
    """Coarse traffic classes, used for bandwidth reservation lanes."""

    DATA = "data"           # workload dataflow traffic
    EVIDENCE = "evidence"   # fault evidence distribution (control plane)
    STATE = "state"         # task state transfer during mode changes
    CONTROL = "control"     # mode-change coordination, heartbeats


#: Wire size of a small control message, and of the envelope around the
#: statement a fetch response or a flooded declaration carries.
CONTROL_BITS = 1_024


@dataclass(slots=True)
class Message:
    """A unicast message between two nodes: a value that nothing in the
    hop runtime rewrites, so a receiver may keep it (or its payload)
    after delivery.

    Attributes
    ----------
    src, dst:
        Node identifiers (strings). ``dst`` is the *final* destination;
        multi-hop routing re-transmits the same message per hop.
    kind:
        Traffic class (determines which bandwidth lane is charged).
    payload:
        Arbitrary application content. Must be treated as opaque by the
        network layers.
    size_bits:
        Wire size, including headers and signatures.
    flow:
        Dataflow-graph flow name for DATA traffic, else None.
    """

    src: str
    dst: str
    kind: MessageKind
    payload: Any
    size_bits: int
    flow: Optional[str] = None

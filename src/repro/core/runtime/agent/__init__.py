"""The per-node BTR agent, one module per runtime role: :class:`NodeAgent`
(:mod:`.node`) holds the paper's online fault detector (:mod:`.detection`),
evidence distributor end (:mod:`.evidence`) and mode switcher
(:mod:`.switching`), each an object that owns its state."""

from .detection import Detector
from .evidence import EvidenceEndpoint
from .node import NodeAgent
from .switching import ModeSwitching

__all__ = ["Detector", "EvidenceEndpoint", "ModeSwitching", "NodeAgent"]

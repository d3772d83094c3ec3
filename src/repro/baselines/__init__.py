"""Baseline fault-tolerance systems on the same substrate as BTR."""

from .base import BaselineAgent, BaselineSystem
from .bft import BFTSystem, bft_augment, majority
from .crash_restart import CrashRestartSystem
from .selfstab import SelfStabilizingSystem
from .unreplicated import UnreplicatedSystem
from .zz import ZZSystem

#: The named baselines: the one name -> system table behind ``repro
#: compare`` and the committed baseline digests.
BASELINES = {
    "unreplicated": UnreplicatedSystem,
    "bft": BFTSystem,
    "zz": ZZSystem,
    "selfstab": SelfStabilizingSystem,
    "crash_restart": CrashRestartSystem,
}

__all__ = [
    "BASELINES",
    "BaselineAgent",
    "BaselineSystem",
    "BFTSystem",
    "bft_augment",
    "majority",
    "CrashRestartSystem",
    "SelfStabilizingSystem",
    "UnreplicatedSystem",
    "ZZSystem",
]

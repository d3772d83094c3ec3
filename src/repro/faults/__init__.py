"""Fault injection: Byzantine behaviours, fault scripts, the scenario
builders that script them, and fault patterns."""

from .adversary import (
    BEHAVIORS,
    FaultScript,
    Injection,
    behavior_params,
    behavior_rng_seed,
    make_behavior,
    script_from_dict,
    script_to_dict,
)
from .behaviors import (
    CommissionFault,
    CrashFault,
    EquivocationFault,
    EvidenceFloodFault,
    FaultBehavior,
    OmissionFault,
    RogueClockFault,
    TimingFault,
)
from .scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioError,
    paced,
    random_faults,
    single_fault,
    stage,
)
from .patterns import (
    FaultPattern,
    all_patterns_up_to,
    mode_id,
    pattern,
    strategy_size,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioError",
    "paced",
    "random_faults",
    "single_fault",
    "stage",
    "BEHAVIORS",
    "FaultScript",
    "Injection",
    "behavior_params",
    "behavior_rng_seed",
    "make_behavior",
    "script_from_dict",
    "script_to_dict",
    "CommissionFault",
    "CrashFault",
    "EquivocationFault",
    "EvidenceFloodFault",
    "FaultBehavior",
    "OmissionFault",
    "RogueClockFault",
    "TimingFault",
    "FaultPattern",
    "all_patterns_up_to",
    "mode_id",
    "pattern",
    "strategy_size",
]

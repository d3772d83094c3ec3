"""The offline planner (§4.1): augmentation, placement, plans, strategies."""

from . import naming
from .augment import AugmentConfig, augment
from .distance import PlanDistance, plan_distance
from .placement import PlacementConfig, PlacementError, node_exposure, place
from .plan import Plan, PlanningError, augmented_ladder, build_plan
from .serialize import (
    StrategyFormatError,
    plan_from_dict,
    plan_to_dict,
    read_strategy,
    strategy_from_dict,
    strategy_from_json,
    strategy_to_json,
)
from .strategy import (
    PLANNER_VERSION,
    Strategy,
    build_strategy,
)

__all__ = [
    "naming",
    "AugmentConfig",
    "augment",
    "PlanDistance",
    "plan_distance",
    "PlacementConfig",
    "PlacementError",
    "node_exposure",
    "place",
    "Plan",
    "PlanningError",
    "augmented_ladder",
    "build_plan",
    "StrategyFormatError",
    "plan_from_dict",
    "plan_to_dict",
    "read_strategy",
    "strategy_from_dict",
    "strategy_from_json",
    "strategy_to_json",
    "PLANNER_VERSION",
    "Strategy",
    "build_strategy",
]

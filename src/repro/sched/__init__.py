"""Real-time scheduling substrate: lanes, tables, synthesis and the
mixed-criticality shedding ladder."""

from .lanes import LANE_FRACTIONS, LaneModel
from .mixed_criticality import keep_levels, shed_workload, shedding_ladder
from .synthesis import AssignmentError, GlobalSchedule, synthesize
from .table import (
    NodeSchedule,
    PlannedTransmission,
    ScheduleEntry,
    ScheduleError,
)

__all__ = [
    "LANE_FRACTIONS",
    "LaneModel",
    "keep_levels",
    "shed_workload",
    "shedding_ladder",
    "AssignmentError",
    "GlobalSchedule",
    "synthesize",
    "NodeSchedule",
    "PlannedTransmission",
    "ScheduleEntry",
    "ScheduleError",
]

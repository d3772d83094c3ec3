"""Real-time scheduling substrate: tables, synthesis, analysis, MC."""

from .analysis import (
    PeriodicTask,
    deadline_monotonic_order,
    edf_schedulable,
    response_time,
    rm_schedulable,
    rm_utilization_bound,
    rta_schedulable,
    total_utilization,
)
from .lanes import LANE_FRACTIONS, LaneModel
from .mixed_criticality import (
    MCTask,
    keep_levels,
    shed_workload,
    shedding_ladder,
    vestal_schedulable,
)
from .synthesis import AssignmentError, GlobalSchedule, synthesize
from .table import (
    NodeSchedule,
    PlannedTransmission,
    ScheduleEntry,
    ScheduleError,
)

__all__ = [
    "PeriodicTask",
    "deadline_monotonic_order",
    "edf_schedulable",
    "response_time",
    "rm_schedulable",
    "rm_utilization_bound",
    "rta_schedulable",
    "total_utilization",
    "LANE_FRACTIONS",
    "LaneModel",
    "MCTask",
    "keep_levels",
    "shed_workload",
    "shedding_ladder",
    "vestal_schedulable",
    "AssignmentError",
    "GlobalSchedule",
    "synthesize",
    "NodeSchedule",
    "PlannedTransmission",
    "ScheduleEntry",
    "ScheduleError",
]

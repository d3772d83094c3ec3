"""Workload model: periodic dataflow graphs with criticality and deadlines."""

from .criticality import Criticality
from .dataflow import DataflowGraph, Flow, WorkloadError
from .generators import (
    WORKLOADS,
    automotive_workload,
    avionics_workload,
    industrial_workload,
    pipeline_workload,
    power_grid_workload,
    random_workload,
    stretched_workload,
)
from .task import Task, compute_output, sensor_reading

__all__ = [
    "WORKLOADS",
    "Criticality",
    "DataflowGraph",
    "Flow",
    "WorkloadError",
    "Task",
    "compute_output",
    "sensor_reading",
    "automotive_workload",
    "avionics_workload",
    "industrial_workload",
    "pipeline_workload",
    "power_grid_workload",
    "random_workload",
    "stretched_workload",
]

"""The reference oracle: what an all-correct system would output.

Definition 3.1 compares a system's outputs against "the outputs of a system
in which all nodes are correct". Because task semantics are deterministic
(:mod:`repro.workload.task`), that reference is computable: evaluate the
dataflow graph per period. Values are cached per period.
"""

from __future__ import annotations

from typing import Dict

from ..workload.dataflow import DataflowGraph
from ..workload.task import compute_output, sensor_reading


class ReferenceOracle:
    """Evaluates the original (unaugmented) workload per period."""

    def __init__(self, workload: DataflowGraph) -> None:
        self.workload = workload
        self._cache: Dict[int, Dict[str, int]] = {}
        self._order = workload.topological_order()

    def _values(self, period_index: int) -> Dict[str, int]:
        cached = self._cache.get(period_index)
        if cached is not None:
            return cached
        values: Dict[str, int] = {}
        for source in self.workload.sources:
            values[source] = sensor_reading(source, period_index)
        for task in self._order:
            inputs = [values[f.src]
                      for f in self.workload.inputs_of(task)]
            values[task] = compute_output(task, period_index, inputs)
        self._cache[period_index] = values
        return values

    def sink_value(self, flow_base: str, period_index: int) -> int:
        """The unique correct value of a sink flow in a period."""
        flow = self.workload.flow(flow_base)
        return self._values(period_index)[flow.src]

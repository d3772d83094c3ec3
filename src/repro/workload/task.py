"""Tasks and their deterministic reference semantics.

A task is a unit of periodic computation in the dataflow graph. To make
*correctness of outputs* checkable (Definition 3.1 compares actual outputs to
those of an all-correct reference system), task semantics are fixed and
deterministic: a task's output value is a digest of its name, the period
index, and its input values, so any correct executor — primary, replica, or
the analysis-layer oracle — computes the identical value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

from .criticality import Criticality


@lru_cache(maxsize=4096)
def sensor_reading(source: str, period_index: int) -> int:
    """Reference value read from the physical world by ``source``.

    Sources are physical-world inputs; in the simulation their readings are
    a deterministic function of (source, period) so every replica that reads
    the same sensor sees the same value. Pure — a hash of its arguments —
    so the bounded process-wide memo can only ever return what a
    recomputation would.
    """
    digest = hashlib.sha256(f"sensor:{source}:{period_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def compute_output(task_name: str, period_index: int,
                   input_values: Sequence[int]) -> int:
    """The unique correct output of ``task_name`` in period ``period_index``.

    Inputs are combined order-independently (sorted) so that replicas whose
    messages arrive in different orders still agree.
    """
    return _output_of(task_name, period_index, tuple(sorted(input_values)))


@lru_cache(maxsize=4096)
def _output_of(task_name: str, period_index: int,
               sorted_values: Tuple[int, ...]) -> int:
    """:func:`compute_output` of already-sorted inputs. Pure — a hash of
    its arguments — so the f+1 replicas of a task, their checker and
    every run of a campaign may share one bounded process-wide memo."""
    material = f"task:{task_name}:{period_index}:" + ",".join(
        str(v) for v in sorted_values
    )
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Task:
    """A periodic computation in the dataflow graph.

    Attributes
    ----------
    name:
        Unique task name.
    wcet:
        Worst-case execution time in µs of nominal CPU work (scaled by node
        speed at runtime).
    criticality:
        The task's criticality level; inherited by its outputs unless a flow
        overrides it.
    state_bits:
        Size of the task's internal state. Migrating the task during a mode
        change costs this many bits of STATE traffic — the planner's
        plan-distance metric is built on it.
    """

    name: str
    wcet: int
    criticality: Criticality = Criticality.B
    state_bits: int = 0

    def __post_init__(self) -> None:
        if self.wcet <= 0:
            raise ValueError(f"task {self.name}: wcet must be positive")
        if self.state_bits < 0:
            raise ValueError(f"task {self.name}: state_bits must be >= 0")

"""Classical single-node schedulability analysis.

The table synthesizer in :mod:`repro.sched.synthesis` is what BTR actually
deploys, and the planner's feasibility test is that synthesis succeeding;
nothing in the program path calls these closed-form tests. They remain as
reference points only. Included:

* EDF utilization bound (Liu & Layland): U ≤ 1 on a uniprocessor with
  implicit deadlines.
* Rate-monotonic utilization bound: U ≤ n(2^{1/n} − 1).
* Exact response-time analysis (RTA) for fixed-priority preemptive
  scheduling with constrained deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class PeriodicTask:
    """An independent periodic task for single-node analysis."""

    name: str
    wcet: int
    period: int
    deadline: Optional[int] = None  # None => implicit (== period)

    def __post_init__(self) -> None:
        if self.wcet <= 0 or self.period <= 0:
            raise ValueError(f"{self.name}: wcet and period must be positive")
        if self.effective_deadline < self.wcet:
            raise ValueError(f"{self.name}: deadline shorter than wcet")

    @property
    def effective_deadline(self) -> int:
        return self.deadline if self.deadline is not None else self.period

    @property
    def utilization(self) -> float:
        return self.wcet / self.period


def total_utilization(tasks: Sequence[PeriodicTask]) -> float:
    return sum(t.utilization for t in tasks)


def edf_schedulable(tasks: Sequence[PeriodicTask], capacity: float = 1.0
                    ) -> bool:
    """EDF feasibility on one node of given capacity (implicit deadlines).

    For tasks with constrained deadlines this test is only necessary, not
    sufficient; it is used as the planner's fast pre-filter.
    """
    return total_utilization(tasks) <= capacity + 1e-12


def rm_utilization_bound(n: int) -> float:
    """Liu & Layland's sufficient RM bound for n tasks."""
    if n <= 0:
        raise ValueError("n must be positive")
    return n * (2 ** (1.0 / n) - 1)


def rm_schedulable(tasks: Sequence[PeriodicTask]) -> bool:
    """Sufficient (not necessary) rate-monotonic test."""
    if not tasks:
        return True
    return total_utilization(tasks) <= rm_utilization_bound(len(tasks)) + 1e-12


def response_time(task_index: int, tasks: Sequence[PeriodicTask],
                  max_iterations: int = 1000) -> Optional[int]:
    """Exact RTA response time of ``tasks[task_index]``.

    Tasks must be given in priority order (highest first). Returns None when
    the fixed-point iteration exceeds the deadline (unschedulable) or fails
    to converge.
    """
    task = tasks[task_index]
    higher = tasks[:task_index]
    r = task.wcet
    for _ in range(max_iterations):
        interference = sum(
            -(-r // h.period) * h.wcet  # ceil(r / T_h) * C_h
            for h in higher
        )
        next_r = task.wcet + interference
        if next_r == r:
            return r
        if next_r > task.effective_deadline:
            return None
        r = next_r
    return None


def rta_schedulable(tasks: Sequence[PeriodicTask]) -> bool:
    """Exact fixed-priority feasibility, tasks in priority order."""
    return all(
        response_time(i, tasks) is not None for i in range(len(tasks))
    )


def deadline_monotonic_order(tasks: Sequence[PeriodicTask]
                             ) -> List[PeriodicTask]:
    """Deadline-monotonic priority assignment (optimal for this model)."""
    return sorted(tasks, key=lambda t: (t.effective_deadline, t.name))

"""The periodic dataflow-graph workload model.

Matches the paper's workload assumption (§2.1): "a static, periodic workload
that can be described as a dataflow graph. The system has a period P and
releases a set of tasks during each period. Each task requires some inputs
from the sources and/or from other tasks, and it sends at least one output to
a sink or another task. Each output has a criticality level and a deadline by
which it must arrive at the appropriate sink."

Endpoints of a flow are task names, source names, or sink names. Sources and
sinks are *interface points to the physical world*; which node hosts them is
part of the deployment (see :mod:`repro.net.topology`), not the workload.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .criticality import Criticality
from .task import Task


class WorkloadError(Exception):
    """Raised for structurally invalid dataflow graphs."""


@dataclass(frozen=True)
class Flow:
    """A directed data dependency.

    ``src`` is a source name or task name; ``dst`` is a task name or sink
    name. Flows to sinks carry a hard ``deadline`` (µs, relative to the
    period release) and a criticality; internal flows inherit criticality
    from their producer and have no external deadline.
    """

    name: str
    src: str
    dst: str
    size_bits: int = 512
    deadline: Optional[int] = None
    criticality: Optional[Criticality] = None

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError(f"flow {self.name}: size_bits must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"flow {self.name}: deadline must be positive")


class DataflowGraph:
    """A static periodic workload: tasks, flows, sources, and sinks.

    A graph is never mutated after ``__init__``: plans of one strategy
    share graph objects on that basis, and the graph itself remembers
    what is a function of its structure alone (the flows into and out of
    each endpoint, the topological and deadline-driven task orders).
    """

    def __init__(
        self,
        period: int,
        tasks: Iterable[Task],
        flows: Iterable[Flow],
        sources: Iterable[str],
        sinks: Iterable[str],
        name: str = "workload",
    ) -> None:
        if period <= 0:
            raise WorkloadError("period must be positive")
        self.name = name
        self.period = period
        self.tasks: Dict[str, Task] = {}
        for task in tasks:
            if task.name in self.tasks:
                raise WorkloadError(f"duplicate task name: {task.name}")
            self.tasks[task.name] = task
        self.sources: Set[str] = set(sources)
        self.sinks: Set[str] = set(sinks)
        self.flows: List[Flow] = list(flows)
        self._flows_by_name: Dict[str, Flow] = {}
        for flow in self.flows:
            if flow.name in self._flows_by_name:
                raise WorkloadError(f"duplicate flow name: {flow.name}")
            self._flows_by_name[flow.name] = flow
        self.validate()

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Check the structural invariants from the paper's workload model,
        indexing the flows by endpoint in the same pass."""
        names = set(self.tasks)
        overlap = (names & self.sources) | (names & self.sinks) | (
            self.sources & self.sinks
        )
        if overlap:
            raise WorkloadError(f"names used in multiple roles: {overlap}")

        inputs: Dict[str, List[Flow]] = {}
        outputs: Dict[str, List[Flow]] = {}
        for flow in self.flows:
            if flow.src not in names and flow.src not in self.sources:
                raise WorkloadError(
                    f"flow {flow.name}: unknown src {flow.src!r}"
                )
            if flow.dst not in names and flow.dst not in self.sinks:
                raise WorkloadError(
                    f"flow {flow.name}: unknown dst {flow.dst!r}"
                )
            if flow.src in self.sources and flow.dst in self.sinks:
                raise WorkloadError(
                    f"flow {flow.name}: direct source-to-sink flow"
                )
            if flow.dst in self.sinks and flow.deadline is None:
                raise WorkloadError(
                    f"flow {flow.name}: sink flow needs a deadline"
                )
            if flow.deadline is not None and flow.deadline > self.period:
                raise WorkloadError(
                    f"flow {flow.name}: deadline {flow.deadline} exceeds "
                    f"period {self.period} (constrained-deadline model)"
                )
            outputs.setdefault(flow.src, []).append(flow)
            inputs.setdefault(flow.dst, []).append(flow)
        self._inputs: Dict[str, Tuple[Flow, ...]] = {
            name: tuple(fs) for name, fs in inputs.items()}
        self._outputs: Dict[str, Tuple[Flow, ...]] = {
            name: tuple(fs) for name, fs in outputs.items()}

        for task in self.tasks.values():
            if task.name not in self._outputs:
                raise WorkloadError(
                    f"task {task.name} has no outputs (paper: every task "
                    f"sends at least one output)"
                )

        self._order: Tuple[str, ...] = tuple(
            self._kahn_order(lambda name: 0))
        self._deadline_order: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------- queries

    def flow(self, name: str) -> Flow:
        return self._flows_by_name[name]

    def find_flow(self, name: str) -> Optional[Flow]:
        """The flow called ``name``, or None when the graph has none (a
        name read off a delivered message is not trusted to be one)."""
        return self._flows_by_name.get(name)

    def inputs_of(self, task_name: str) -> Tuple[Flow, ...]:
        """Flows consumed by ``task_name``, in declaration order."""
        return self._inputs.get(task_name, ())

    def outputs_of(self, task_name: str) -> Tuple[Flow, ...]:
        """Flows produced by ``task_name``, in declaration order."""
        return self._outputs.get(task_name, ())

    def sink_flows(self) -> List[Flow]:
        """Flows whose destination is a physical-world sink."""
        return [f for f in self.flows if f.dst in self.sinks]

    def source_flows(self) -> List[Flow]:
        return [f for f in self.flows if f.src in self.sources]

    def flow_criticality(self, flow: Flow) -> Criticality:
        """Effective criticality of a flow (explicit, else producer's)."""
        if flow.criticality is not None:
            return flow.criticality
        producer = self.tasks.get(flow.src)
        if producer is not None:
            return producer.criticality
        consumer = self.tasks.get(flow.dst)
        return consumer.criticality if consumer else Criticality.B

    def topological_order(self) -> List[str]:
        """Task names in dependency order (ties by name)."""
        return list(self._order)

    def _kahn_order(self, urgency: Callable[[str], int]) -> List[str]:
        """Kahn's algorithm, always taking the ready task with the smallest
        ``(urgency, name)``; raises WorkloadError on cycles."""
        indegree = {name: 0 for name in self.tasks}
        successors: Dict[str, List[str]] = {name: [] for name in self.tasks}
        for flow in self.flows:
            if flow.src in self.tasks and flow.dst in self.tasks:
                indegree[flow.dst] += 1
                successors[flow.src].append(flow.dst)
        ready = [(urgency(name), name)
                 for name, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            _, current = heapq.heappop(ready)
            order.append(current)
            for succ in successors[current]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, (urgency(succ), succ))
        if len(order) != len(self.tasks):
            raise WorkloadError("dataflow graph has a cycle")
        return order

    def deadline_driven_order(self) -> Tuple[str, ...]:
        """Task names in dependency order, most urgent ready task first.

        Urgency is the task's latest finish time that can still meet every
        downstream sink deadline (ignoring network delays — optimistic,
        which is fine for an ordering heuristic); tasks with no deadlined
        sink below them get the period. Computed on first use.
        """
        if self._deadline_order is None:
            bounds: Dict[str, int] = {}
            for task_name in reversed(self._order):
                bound = self.period
                for flow in self.outputs_of(task_name):
                    if flow.dst in self.tasks:
                        consumer = self.tasks[flow.dst]
                        bound = min(bound, bounds[flow.dst] - consumer.wcet)
                    elif flow.deadline is not None:
                        bound = min(bound, flow.deadline)
                bounds[task_name] = bound
            self._deadline_order = tuple(self._kahn_order(bounds.__getitem__))
        return self._deadline_order

    def upstream_closure(self, task_name: str) -> Set[str]:
        """All tasks that ``task_name`` transitively depends on (incl. self)."""
        result: Set[str] = set()
        frontier = [task_name]
        while frontier:
            current = frontier.pop()
            if current in result or current not in self.tasks:
                continue
            result.add(current)
            for flow in self.inputs_of(current):
                frontier.append(flow.src)
        return result

    def tasks_feeding_sink_flow(self, flow: Flow) -> Set[str]:
        """Tasks whose execution is required for a given sink flow."""
        if flow.src not in self.tasks:
            return set()
        return self.upstream_closure(flow.src)

    def total_wcet(self) -> int:
        return sum(t.wcet for t in self.tasks.values())

    def restricted_to(self, keep_tasks: Set[str], name: Optional[str] = None
                      ) -> "DataflowGraph":
        """A sub-workload containing only ``keep_tasks`` and flows between
        them (plus their source/sink flows). Used by criticality shedding.

        Tasks whose every consumer was shed end up with no outputs, which
        violates the workload model ("each task sends at least one
        output"); such tasks are pruned too, iterating to a fixpoint
        because each removal can orphan producers further upstream. A
        pruned task can never feed a kept sink flow (it had no outputs),
        so kept outputs are unaffected.
        """
        keep = set(keep_tasks)
        while True:
            flows = [
                f for f in self.flows
                if (f.src in keep or f.src in self.sources)
                and (f.dst in keep or f.dst in self.sinks)
            ]
            producing = {f.src for f in flows}
            orphaned = keep - producing
            if not orphaned:
                break
            keep -= orphaned
        tasks = [t for n, t in self.tasks.items() if n in keep]
        used_sources = {f.src for f in flows if f.src in self.sources}
        used_sinks = {f.dst for f in flows if f.dst in self.sinks}
        return DataflowGraph(
            period=self.period,
            tasks=tasks,
            flows=flows,
            sources=used_sources,
            sinks=used_sinks,
            name=name or f"{self.name}|restricted",
        )

    def __eq__(self, other: object) -> bool:
        """Value equality: same name, period, tasks and flows (each in
        declaration order), sources and sinks. A graph is never mutated,
        and none is hashed (``__eq__`` leaves the class unhashable)."""
        if not isinstance(other, DataflowGraph):
            return NotImplemented
        return self is other or (
            self.name == other.name and self.period == other.period
            and list(self.tasks.values()) == list(other.tasks.values())
            and self.flows == other.flows
            and self.sources == other.sources and self.sinks == other.sinks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataflowGraph({self.name}, P={self.period}us, "
            f"{len(self.tasks)} tasks, {len(self.flows)} flows)"
        )

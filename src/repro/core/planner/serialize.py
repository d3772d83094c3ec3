"""Strategy serialization: the artifact installed on every node.

§4.1: "Some representation of the strategy is then installed in each node,
so that correct nodes will have a consistent view of it at runtime." This
module is that representation: a JSON-stable encoding of a complete
:class:`~repro.core.planner.strategy.Strategy` — every plan's workload,
augmented graph, assignment, timetable, and routes — with a lossless
round-trip, so the offline planner can run on a workstation and the result
can be shipped to (simulated) nodes, diffed, or archived with a deployment.

The artifact is the compact text ``json.dumps(record, sort_keys=True)``
would write for the strategy record. :func:`strategy_to_json` writes it
field by field instead, so each graph the plans share is encoded once,
and the strategy keeps the text.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Tuple, Union

from ...sched.synthesis import GlobalSchedule
from ...sched.table import (
    NodeSchedule,
    PlannedTransmission,
    ScheduleEntry,
    ScheduleError,
)
from ...workload.criticality import Criticality
from ...workload.dataflow import DataflowGraph, Flow, WorkloadError
from ...workload.task import Task
from .plan import Plan
from .strategy import Strategy


def _graph_to_dict(graph: DataflowGraph) -> dict:
    # Tasks and flows go out in declaration order, as they always have.
    tasks = [graph.tasks[name] for name in graph.tasks]
    return {
        "name": graph.name,
        "period": graph.period,
        "tasks": [
            {"name": t.name, "wcet": t.wcet,
             "criticality": t.criticality.value,
             "state_bits": t.state_bits}
            for t in tasks
        ],
        "flows": [
            {"name": f.name, "src": f.src, "dst": f.dst,
             "size_bits": f.size_bits, "deadline": f.deadline,
             "criticality": f.criticality.value if f.criticality else None}
            for f in graph.flows
        ],
        "sources": sorted(graph.sources),
        "sinks": sorted(graph.sinks),
    }


def _graph_from_dict(data: dict) -> DataflowGraph:
    return DataflowGraph(
        period=data["period"],
        tasks=[
            Task(name=t["name"], wcet=t["wcet"],
                 criticality=Criticality(t["criticality"]),
                 state_bits=t["state_bits"])
            for t in data["tasks"]
        ],
        flows=[
            Flow(name=f["name"], src=f["src"], dst=f["dst"],
                 size_bits=f["size_bits"], deadline=f["deadline"],
                 criticality=(Criticality(f["criticality"])
                              if f["criticality"] else None))
            for f in data["flows"]
        ],
        sources=data["sources"],
        sinks=data["sinks"],
        name=data["name"],
    )


def _schedule_to_dict(schedule: GlobalSchedule) -> dict:
    return {
        "period": schedule.period,
        "assignment": dict(schedule.assignment),
        "node_schedules": {
            node: [[e.task, e.start, e.finish] for e in ns]
            for node, ns in sorted(schedule.node_schedules.items())
        },
        "transmissions": [
            [t.flow, t.sender, t.receiver, t.link_id, t.start, t.arrival,
             t.size_bits]
            for t in schedule.transmissions
        ],
        "arrivals": dict(schedule.arrivals),
        "violations": list(schedule.violations),
    }


def _schedule_from_dict(data: dict) -> GlobalSchedule:
    node_schedules = {}
    for node, entries in sorted(data["node_schedules"].items()):
        ns = NodeSchedule(node, data["period"])
        for task, start, finish in entries:
            ns.add(ScheduleEntry(task=task, start=start, finish=finish))
        node_schedules[node] = ns
    return GlobalSchedule(
        period=data["period"],
        assignment=dict(data["assignment"]),
        node_schedules=node_schedules,
        transmissions=[
            PlannedTransmission(flow=f, sender=s, receiver=r, link_id=l,
                                start=st, arrival=a, size_bits=b)
            for f, s, r, l, st, a, b in data["transmissions"]
        ],
        arrivals=dict(data["arrivals"]),
        violations=list(data["violations"]),
    )


def _dumps(value: object) -> str:
    return json.dumps(value, sort_keys=True)


def _graph_json(graph: DataflowGraph) -> str:
    return _dumps(_graph_to_dict(graph))


#: A record whose leaves are already encoded: a ``str`` is a value's JSON
#: text, a dict an object, a list an array.
_Spliced = Union[str, Dict[str, "_Spliced"], List["_Spliced"]]


def _splice(record: _Spliced, out: List[str]) -> List[str]:
    """Append the pieces of ``record``'s JSON text to ``out``, object keys
    sorted. With ``indent=None`` the encoder writes a value the same
    wherever it sits, so the joined pieces are the text ``_dumps`` gives
    for the decoded record; a leaf held by many records is copied once,
    by the join."""
    if isinstance(record, str):
        out.append(record)
    elif isinstance(record, dict):
        out.append("{")
        for n, (key, value) in enumerate(sorted(record.items())):
            out.append(f", {_dumps(key)}: " if n else f"{_dumps(key)}: ")
            _splice(value, out)
        out.append("}")
    else:
        out.append("[")
        for n, value in enumerate(record):
            if n:
                out.append(", ")
            _splice(value, out)
        out.append("]")
    return out


def _plan_record(plan: Plan, graph_json: Callable[[DataflowGraph], str]
                 ) -> Dict[str, str]:
    """One plan's record: the one place its fields are spelled."""
    return {
        "pattern": _dumps(sorted(plan.pattern)),
        "workload": graph_json(plan.workload),
        "augmented": graph_json(plan.augmented),
        "assignment": _dumps(plan.assignment),
        "schedule": _dumps(_schedule_to_dict(plan.schedule)),
        "kept_levels": _dumps(sorted(l.value for l in plan.kept_levels)),
        "routes": _dumps(plan.routes),
    }


def plan_to_dict(plan: Plan) -> dict:
    """One plan's record as plain data: its artifact text, decoded. Every
    call builds fresh containers, so ``plan_from_dict(plan_to_dict(p))``
    is a clone that shares nothing with ``p``."""
    return json.loads("".join(_splice(_plan_record(plan, _graph_json), [])))


def plan_from_dict(
    data: dict,
    graph_from_dict: Callable[[dict], DataflowGraph] = _graph_from_dict,
) -> Plan:
    return Plan(
        pattern=frozenset(data["pattern"]),
        workload=graph_from_dict(data["workload"]),
        augmented=graph_from_dict(data["augmented"]),
        assignment=dict(data["assignment"]),
        schedule=_schedule_from_dict(data["schedule"]),
        kept_levels={Criticality(v) for v in data["kept_levels"]},
        routes={name: list(route)
                for name, route in sorted(data["routes"].items())},
    )


def shared_graphs() -> Callable[[dict], DataflowGraph]:
    """A ``graph_from_dict`` for :func:`plan_from_dict` under which equal
    encodings decode to one shared graph object, which is what the plans
    held before they were serialised."""
    decoded: List[Tuple[dict, DataflowGraph]] = []

    def graph_from_dict(encoded: dict) -> DataflowGraph:
        for seen, graph in decoded:
            if seen == encoded:
                return graph
        decoded.append((encoded, _graph_from_dict(encoded)))
        return decoded[-1][1]

    return graph_from_dict


FORMAT_VERSION = 1


class StrategyFormatError(ValueError):
    """The text is not a strategy artifact this code can decode: not
    JSON, not the artifact's shape, or another ``FORMAT_VERSION``."""


def strategy_to_json(strategy: Strategy) -> str:
    """The artifact: ``json.dumps`` of the strategy record with sorted
    keys, written with one encoding pass per distinct object. Plans share
    graph objects (see :class:`Plan`), so each distinct graph becomes
    text once per call and is spliced into every plan that holds it. A
    strategy is never mutated (see :class:`Strategy`), so it keeps the
    text from its first call and every later call returns that."""
    if strategy._artifact is None:
        graphs: Dict[int, str] = {}

        def graph_json(graph: DataflowGraph) -> str:
            if id(graph) not in graphs:
                graphs[id(graph)] = _graph_json(graph)
            return graphs[id(graph)]

        strategy._artifact = "".join(_splice({
            "format_version": _dumps(FORMAT_VERSION),
            "f": _dumps(strategy.f),
            "covered_nodes": _dumps(sorted(strategy.covered_nodes)),
            "plans": [_plan_record(strategy.plan_for(pattern), graph_json)
                      for pattern in strategy.patterns()],
        }, []))
    return strategy._artifact


def strategy_from_dict(data: dict) -> Strategy:
    if data.get("format_version") != FORMAT_VERSION:
        raise StrategyFormatError(
            f"unsupported strategy format {data.get('format_version')!r}"
        )
    graph_from_dict = shared_graphs()
    plans = {}
    for plan_data in data["plans"]:
        plan = plan_from_dict(plan_data, graph_from_dict)
        plans[plan.pattern] = plan
    return Strategy(f=data["f"], plans=plans,
                    covered_nodes=data["covered_nodes"])


def strategy_from_json(text: Union[str, bytes]) -> Strategy:
    """Decode an artifact; bytes (as read from a file) are UTF-8. Text
    that is not an artifact raises :class:`StrategyFormatError`."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return strategy_from_dict(json.loads(text))
    except StrategyFormatError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            WorkloadError, ScheduleError) as exc:
        # json.JSONDecodeError and UnicodeDecodeError are ValueErrors;
        # the rest are well-formed JSON of the wrong shape hitting the
        # decoder, or a plan whose graph or schedule does not validate.
        raise StrategyFormatError(
            f"malformed strategy artifact: {exc!r}") from exc

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
The decoder refuses what the encoder could not have written, so the
verifier only ever sees plans the planner's types describe.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, NoReturn, Tuple, Union

from ...persist import InputError, read_json
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


FORMAT_VERSION = 1


class StrategyFormatError(InputError):
    """The text is not a strategy artifact this code can decode: not
    JSON, not the artifact's shape, or another ``FORMAT_VERSION``."""


def _refuse(what: str, value: object) -> NoReturn:
    raise StrategyFormatError(f"{what} is not what the encoder writes: "
                              f"{value!r}")


def _only(kind: type, values: Iterable[object], what: str) -> None:
    # ``type(...) is``: a JSON ``true`` is no int, and ``1.5`` no time.
    for value in values:
        if type(value) is not kind:
            _refuse(what, value)


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
    period = data["period"]
    _only(int, [period], "schedule period")
    node_schedules = {}
    for node, entries in sorted(data["node_schedules"].items()):
        ns = NodeSchedule(node, period)
        for task, start, finish in entries:
            _only(str, [task], "slot task")
            _only(int, [start, finish], "slot time")
            ns.add(ScheduleEntry(task=task, start=start, finish=finish))
        node_schedules[node] = ns
    # The synthesizer gives every node it may assign to a timetable.
    hosts = dict(data["assignment"])
    _only(str, hosts.values(), "schedule host")
    for host in sorted(set(hosts.values()) - node_schedules.keys()):
        _refuse("schedule host", host)
    transmissions = []
    for flow, sender, receiver, link, start, arrival, bits in \
            data["transmissions"]:
        _only(str, [flow, sender, receiver, link], "transmission name")
        _only(int, [start, arrival, bits], "transmission time")
        transmissions.append(PlannedTransmission(
            flow, sender, receiver, link, start, arrival, bits))
    arrivals = dict(data["arrivals"])
    _only(int, arrivals.values(), "arrival")
    return GlobalSchedule(
        period=period,
        assignment=hosts,
        node_schedules=node_schedules,
        transmissions=transmissions,
        arrivals=arrivals,
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
    _only(list, [data["pattern"]], "fault pattern")
    _only(str, data["pattern"], "fault pattern node")
    hosts = dict(data["assignment"])
    _only(str, hosts.values(), "assigned node")
    routes = {}
    for name, route in sorted(data["routes"].items()):
        _only(list, [route], "route")
        _only(str, route, "route hop")
        routes[name] = list(route)
    return Plan(
        pattern=frozenset(data["pattern"]),
        workload=graph_from_dict(data["workload"]),
        augmented=graph_from_dict(data["augmented"]),
        assignment=hosts,
        schedule=_schedule_from_dict(data["schedule"]),
        kept_levels={Criticality(v) for v in data["kept_levels"]},
        routes=routes,
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
    """Decode a strategy record. Anything the encoder could not have
    written raises :class:`StrategyFormatError`."""
    try:
        if data.get("format_version") != FORMAT_VERSION:
            raise StrategyFormatError(f"unsupported strategy format "
                                      f"{data.get('format_version')!r}")
        _only(int, [data["f"]], "strategy f")
        _only(list, [data["covered_nodes"]], "covered nodes")
        _only(str, data["covered_nodes"], "covered node")
        graph_from_dict = shared_graphs()
        plans = {}
        for plan_data in data["plans"]:
            plan = plan_from_dict(plan_data, graph_from_dict)
            plans[plan.pattern] = plan
        if frozenset() not in plans:
            raise StrategyFormatError("strategy has no nominal plan")
        return Strategy(f=data["f"], plans=plans,
                        covered_nodes=data["covered_nodes"])
    except StrategyFormatError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            WorkloadError, ScheduleError) as exc:
        # Well-formed JSON of the wrong shape hitting the decoder, or a
        # plan whose graph or schedule does not validate.
        raise StrategyFormatError(
            f"malformed strategy artifact: {exc!r}") from exc


def strategy_from_json(text: Union[str, bytes]) -> Strategy:
    """Decode an artifact; bytes (as read from a file) are UTF-8. Text
    that is not an artifact raises :class:`StrategyFormatError`."""
    try:
        data = json.loads(text.decode("utf-8") if isinstance(text, bytes)
                          else text)
    except (ValueError, RecursionError) as exc:  # or nested too deep
        raise StrategyFormatError(
            f"malformed strategy artifact: {exc!r}") from exc
    return strategy_from_dict(data)


def read_strategy(path: str) -> Strategy:
    """The strategy artifact (``repro plan --export``) in the file at
    ``path``; anything else raises :class:`StrategyFormatError`."""
    return read_json(path, StrategyFormatError, strategy_from_dict)

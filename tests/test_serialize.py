"""Tests for strategy serialization (the installed artifact, §4.1)."""

import json

import pytest

from repro import BTRConfig, BTRSystem
from repro.core.planner import (
    plan_from_dict,
    plan_to_dict,
    StrategyFormatError,
    strategy_from_json,
    strategy_to_json,
)
from repro.core.planner.serialize import (
    FORMAT_VERSION,
    _graph_to_dict,
    _schedule_to_dict,
)
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.perf import StrategyCache
from repro.workload import industrial_workload


def reference_json(strategy):
    """The artifact as ``json.dumps`` writes the whole record, built here
    from the plan fields: what the field-by-field encoder must equal."""
    plans = [strategy.plan_for(pattern) for pattern in strategy.patterns()]
    return json.dumps({
        "format_version": FORMAT_VERSION,
        "f": strategy.f,
        "covered_nodes": sorted(strategy.covered_nodes),
        "plans": [{
            "pattern": sorted(plan.pattern),
            "workload": _graph_to_dict(plan.workload),
            "augmented": _graph_to_dict(plan.augmented),
            "assignment": plan.assignment,
            "schedule": _schedule_to_dict(plan.schedule),
            "kept_levels": sorted(l.value for l in plan.kept_levels),
            "routes": plan.routes,
        } for plan in plans],
    }, sort_keys=True)


@pytest.fixture(scope="module")
def system():
    s = BTRSystem(industrial_workload(),
                  full_mesh_topology(7, bandwidth=1e8),
                  BTRConfig(f=1, seed=13))
    s.prepare()
    return s


def test_plan_roundtrip_preserves_everything(system):
    plan = system.strategy.nominal
    restored = plan_from_dict(plan_to_dict(plan))
    assert restored.pattern == plan.pattern
    assert restored.mode == plan.mode
    assert restored.assignment == plan.assignment
    assert restored.routes == plan.routes
    assert restored.kept_levels == plan.kept_levels
    assert restored.schedule.arrivals == plan.schedule.arrivals
    assert restored.schedule.feasible == plan.schedule.feasible
    for instance in plan.augmented.tasks:
        assert (restored.schedule.slot_for(instance)
                == plan.schedule.slot_for(instance))
    # Graphs revalidate cleanly.
    restored.workload.validate()
    restored.augmented.validate()


def test_f2_plan_roundtrip_rebuilds_equal_table_entries():
    """A plan of a double fault decodes to an equal plan: equal
    timetable entries, graphs and node schedules (all compared by
    value), and the same record."""
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=2, seed=13))
    system.prepare()
    pattern = max(system.strategy.patterns(), key=len)
    assert len(pattern) == 2
    plan = system.strategy.plan_for(pattern)
    restored = plan_from_dict(plan_to_dict(plan))
    assert restored.schedule.transmissions == plan.schedule.transmissions
    assert len(plan.schedule.transmissions) > 0
    assert sorted(restored.schedule.node_schedules) == \
        sorted(plan.schedule.node_schedules)
    for node, schedule in plan.schedule.node_schedules.items():
        assert restored.schedule.node_schedules[node].entries == \
            schedule.entries
    assert restored == plan
    assert restored.augmented is not plan.augmented
    assert plan_to_dict(restored) == plan_to_dict(plan)


def test_plan_dict_is_json_stable(system):
    plan = system.strategy.plan_for(
        frozenset({sorted(system.strategy.covered_nodes)[0]}))
    text = json.dumps(plan_to_dict(plan), sort_keys=True)
    again = json.dumps(plan_to_dict(plan), sort_keys=True)
    assert text == again
    assert plan_from_dict(json.loads(text)).assignment == plan.assignment


def test_strategy_roundtrip(system):
    text = strategy_to_json(system.strategy)
    restored = strategy_from_json(text)
    assert restored.f == system.strategy.f
    assert restored.covered_nodes == system.strategy.covered_nodes
    assert len(restored) == len(system.strategy)
    for pattern in system.strategy.patterns():
        a = system.strategy.plan_for(pattern)
        b = restored.plan_for(pattern)
        assert a.assignment == b.assignment
        assert a.routes == b.routes


def test_plans_share_graphs_and_the_artifact_does_not_notice(system):
    """Plans of one strategy hold the same graph objects (a graph is
    never mutated after ``__init__``); the artifact still spells each
    plan out in full, and loading it restores the sharing."""
    def shares_graphs(strategy):
        nominal, *others = [strategy.plan_for(p)
                            for p in strategy.patterns()]
        peers = [p for p in others if p.workload is nominal.workload]
        return peers and all(p.augmented is nominal.augmented
                             for p in peers)

    assert shares_graphs(system.strategy)
    text = strategy_to_json(system.strategy)
    assert text == reference_json(system.strategy)
    encoded = json.loads(text)["plans"]
    assert encoded[1] == plan_to_dict(system.strategy.plan_for(
        system.strategy.patterns()[1]))
    # A plan encoded on its own gets its own copy: clones stay corruptible.
    plan = system.strategy.nominal
    assert (plan_to_dict(plan)["augmented"]
            is not plan_to_dict(plan)["augmented"])

    restored = strategy_from_json(text)
    assert shares_graphs(restored)
    assert strategy_to_json(restored) == text


def test_strategy_keeps_the_artifact_only_its_encoder_wrote(system,
                                                             tmp_path):
    """The first encoding is stored on the (immutable) strategy; text read
    back from a file never is, even when it decodes to the same plans."""
    text = strategy_to_json(system.strategy)
    assert strategy_to_json(system.strategy) is text
    with pytest.raises(AttributeError):
        system.strategy.covered_nodes.add("intruder")

    cache = StrategyCache(str(tmp_path))
    reindented = json.dumps(json.loads(text), indent=1)
    with open(cache.path_for("key"), "w") as f:
        f.write(reindented)
    loaded = cache.load("key")
    assert strategy_to_json(loaded) == text != reindented


def test_strategy_json_rejects_unknown_version(system):
    data = json.loads(strategy_to_json(system.strategy))
    data["format_version"] = 999
    with pytest.raises(StrategyFormatError, match="unsupported"):
        strategy_from_json(json.dumps(data))


def _flow(plan, field, value):
    plan["workload"]["flows"][0][field] = value


def _sink_flow(plan, **fields):
    graph = plan["workload"]
    next(f for f in graph["flows"] if f["dst"] in graph["sinks"]
         ).update(fields)


def _idle_task(plan):
    plan["workload"]["tasks"].append(
        {"name": "idle", "wcet": 1, "criticality": "C", "state_bits": 0})


def _slot(plan, start, finish):
    entries = next(e for e in plan["schedule"]["node_schedules"].values()
                   if e)
    entries[0][1:] = [start, finish]


def _overlap(plan):
    entries = next(e for e in plan["schedule"]["node_schedules"].values()
                   if e)
    entries.append(list(entries[0]))


def _instant_hop(plan):
    hop = plan["schedule"]["transmissions"][0]
    hop[5] = hop[4]  # arrival = start


#: One well-formed-JSON mutation per raise site a plan's rebuild reaches:
#: the graph's validation (WorkloadError) and the node timetables'
#: (ScheduleError). Each must fail as a strategy artifact.
REBUILD_FAULTS = {
    "unknown flow src": (lambda p: _flow(p, "src", "nowhere"),
                         "unknown src"),
    "unknown flow dst": (lambda p: _flow(p, "dst", "nowhere"),
                         "unknown dst"),
    "deadline beyond the period": (lambda p: _flow(p, "deadline", 10**30),
                                   "exceeds period"),
    "sink flow without a deadline": (lambda p: _sink_flow(p, deadline=None),
                                     "needs a deadline"),
    "source-to-sink flow": (
        lambda p: _sink_flow(p, src=p["workload"]["sources"][0]),
        "direct source-to-sink"),
    "task without outputs": (_idle_task, "has no outputs"),
    "empty slot": (lambda p: _slot(p, 5, 5), "bad slot"),
    "slot past the period": (lambda p: _slot(p, 0, 10**30),
                             "overruns the period"),
    "overlapping slots": (_overlap, "overlaps"),
    "hop arriving as it starts": (_instant_hop, "arrives before it starts"),
}


@pytest.mark.parametrize("fault", sorted(REBUILD_FAULTS))
def test_strategy_json_rejects_a_plan_that_does_not_rebuild(system, fault):
    mutate, message = REBUILD_FAULTS[fault]
    data = json.loads(strategy_to_json(system.strategy))
    mutate(data["plans"][0])
    with pytest.raises(StrategyFormatError, match=message):
        strategy_from_json(json.dumps(data))


def _first(mapping):
    return next(iter(mapping))


def _set_first(mapping, value):
    mapping[_first(mapping)] = value


def _first_hop(plan, value):
    route = next(r for r in plan["routes"].values() if r)
    route[0] = value


def _first_entry_task(plan, value):
    entries = next(e for e in plan["schedule"]["node_schedules"].values()
                   if e)
    entries[0][0] = value


def _sink_arrival(plan, value):
    graph = plan["augmented"]
    flow = next(f["name"] for f in graph["flows"]
                if f["dst"] in graph["sinks"])
    plan["schedule"]["arrivals"][flow] = value


def _every_arrival(plan, value):
    arrivals = plan["schedule"]["arrivals"]
    for flow in arrivals:
        arrivals[flow] = value


#: One decodable mutation per place the verifier used to raise on a plan
#: whose fields have another type than the encoder writes (the verifier
#: site each reached). Each must fail as a strategy artifact instead.
WRONG_TYPES = {
    "schedule host no timetable names (verify/schedule.py:66 KeyError)": (
        lambda p: _set_first(p["schedule"]["assignment"], "zz"),
        "schedule host"),
    "schedule host a list (verify/schedule.py:66 TypeError)": (
        lambda p: _set_first(p["schedule"]["assignment"], []),
        "schedule host"),
    "arrival a string (verify/schedule.py:70)": (
        lambda p: _every_arrival(p, "x"), "arrival"),
    "sink arrival a string (verify/schedule.py:89)": (
        lambda p: _sink_arrival(p, "x"), "arrival"),
    "slot task a list (verify/schedule.py:59)": (
        lambda p: _first_entry_task(p, []), "slot task"),
    "route hop a list (verify/routes.py:57)": (
        lambda p: _first_hop(p, []), "route hop"),
    "assigned node a list (verify/placement.py:36)": (
        lambda p: _set_first(p["assignment"], []), "assigned node"),
}


@pytest.mark.parametrize("fault", sorted(WRONG_TYPES))
def test_strategy_json_rejects_a_field_of_another_type(system, fault):
    mutate, message = WRONG_TYPES[fault]
    data = json.loads(strategy_to_json(system.strategy))
    mutate(data["plans"][0])
    with pytest.raises(StrategyFormatError,
                       match=f"{message}.* is not what the encoder writes"):
        strategy_from_json(json.dumps(data))


def test_deserialized_strategy_runs_identically(system):
    """The shipped artifact drives the runtime exactly like the original."""
    adversary = single_fault(system, "commission", at=220_000).script
    original = system.run(20, adversary)

    clone = BTRSystem(industrial_workload(),
                      full_mesh_topology(7, bandwidth=1e8),
                      BTRConfig(f=1, seed=13))
    clone.prepare()
    clone.strategy = strategy_from_json(strategy_to_json(system.strategy))
    replayed = clone.run(20, adversary)

    assert ([(o.time, o.flow, o.period_index, o.value)
             for o in original.outputs()]
            == [(o.time, o.flow, o.period_index, o.value)
                for o in replayed.outputs()])
    assert original.final_fault_sets == replayed.final_fault_sets


def test_property_serialization_roundtrips_random_strategies():
    from hypothesis import given, settings, strategies as st

    from repro.core.planner import build_strategy
    from repro.core.planner.plan import PlanningError
    from repro.core.planner.placement import PlacementError
    from repro.sim import DeterministicRandom, ms
    from repro.workload import random_workload

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def check(seed):
        workload = random_workload(DeterministicRandom(seed), n_tasks=6,
                                   n_layers=2, period=ms(100))
        topology = full_mesh_topology(7, bandwidth=1e8)
        topology.place_endpoints_round_robin(workload.sources,
                                             workload.sinks)
        for f in (1, 2):
            try:
                strategy = build_strategy(workload, topology, f=f)
            except (PlanningError, PlacementError):
                continue
            text = strategy_to_json(strategy)
            assert text == reference_json(strategy)
            assert strategy_to_json(strategy) is text
            restored = strategy_from_json(text)
            assert strategy_to_json(restored) == text
            for pattern in strategy.patterns():
                a, b = strategy.plan_for(pattern), restored.plan_for(pattern)
                assert a.assignment == b.assignment
                assert a.routes == b.routes
                assert a.schedule.arrivals == b.schedule.arrivals

    check()

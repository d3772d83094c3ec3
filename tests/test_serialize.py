"""Tests for strategy serialization (the installed artifact, §4.1)."""

import json

import pytest

from repro import BTRConfig, BTRSystem
from repro.core.planner import (
    plan_from_dict,
    plan_to_dict,
    StrategyFormatError,
    strategy_from_json,
    strategy_to_dict,
    strategy_to_json,
)
from repro.faults import SingleFaultAdversary
from repro.net import full_mesh_topology
from repro.workload import industrial_workload


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
    encoded = strategy_to_dict(system.strategy)["plans"]
    assert encoded[0]["augmented"] is encoded[1]["augmented"]
    assert (json.dumps(encoded[1], sort_keys=True)
            == json.dumps(plan_to_dict(system.strategy.plan_for(
                system.strategy.patterns()[1])), sort_keys=True))
    # A plan encoded on its own gets its own copy: clones stay corruptible.
    plan = system.strategy.nominal
    assert (plan_to_dict(plan)["augmented"]
            is not plan_to_dict(plan)["augmented"])

    text = strategy_to_json(system.strategy)
    restored = strategy_from_json(text)
    assert shares_graphs(restored)
    assert strategy_to_json(restored) == text


def test_strategy_json_rejects_unknown_version(system):
    data = json.loads(strategy_to_json(system.strategy))
    data["format_version"] = 999
    with pytest.raises(StrategyFormatError, match="unsupported"):
        strategy_from_json(json.dumps(data))


def test_deserialized_strategy_runs_identically(system):
    """The shipped artifact drives the runtime exactly like the original."""
    adversary = SingleFaultAdversary(at=220_000, kind="commission")
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
    from repro.net import Router
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
        try:
            strategy = build_strategy(workload, topology,
                                      Router(topology), f=1)
        except (PlanningError, PlacementError):
            return
        restored = strategy_from_json(strategy_to_json(strategy))
        for pattern in strategy.patterns():
            a, b = strategy.plan_for(pattern), restored.plan_for(pattern)
            assert a.assignment == b.assignment
            assert a.routes == b.routes
            assert a.schedule.arrivals == b.schedule.arrivals

    check()

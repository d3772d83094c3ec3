"""Unit tests for recovery-budget accounting (R := D/f and friends)."""

import dataclasses
import inspect

import pytest

from repro import BTRConfig, BTRSystem
from repro.core.detector import BlameTracker, TimingPolicy
from repro.core.evidence import EvidenceLog, EvidenceValidator
from repro.core.planner import AugmentConfig, PlacementConfig
from repro.core.runtime.budget import (
    compute_budget,
    detection_bound,
    distribution_bound,
    recovery_bound_for_deadline,
)
from repro.net import (Router, full_mesh_topology, line_topology,
                       ring_topology)
from repro.sched import LaneModel
from repro.sim import ms, seconds
from repro.workload import industrial_workload


def test_r_equals_d_over_f():
    assert recovery_bound_for_deadline(seconds(10), 1) == seconds(10)
    assert recovery_bound_for_deadline(seconds(10), 2) == seconds(5)
    assert recovery_bound_for_deadline(seconds(9), 4) == 2_250_000


def test_r_rule_rejects_nonsense():
    with pytest.raises(ValueError):
        recovery_bound_for_deadline(0, 1)
    with pytest.raises(ValueError):
        recovery_bound_for_deadline(seconds(1), 0)


def test_config_keeps_only_fields_callers_set():
    # A setting exists only when two non-test callers need different
    # values; every other value is one module constant.
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def parameters(cls):
        return list(inspect.signature(cls).parameters)

    assert fields(BTRConfig) == [
        "f", "R_us", "seed", "clock_drift_ppm", "minimize_distance",
        "use_locality", "strategic_placement", "cache", "trace_mode",
    ]
    assert fields(PlacementConfig) == [
        "minimize_distance", "use_locality", "use_exposure"]
    assert fields(AugmentConfig) == ["replicas", "audit_flows"]
    # No threshold, slack or lane fraction is a constructor argument.
    assert parameters(TimingPolicy) == []
    assert parameters(BlameTracker) == ["liveness", "metrics"]
    assert parameters(EvidenceValidator) == [
        "directory", "roster_lookup", "period", "attribution_freshness_us"]
    assert parameters(EvidenceLog) == ["node", "validator", "metrics"]
    assert parameters(LaneModel) == ["topology"]


def test_distribution_bound_grows_with_diameter():
    mesh = full_mesh_topology(7, bandwidth=1e8)      # diameter 1
    ring = ring_topology(7, bandwidth=1e8)           # diameter 3
    line = line_topology(7, bandwidth=1e8)           # diameter 6
    bounds = [
        distribution_bound(topo, LaneModel(topo))
        for topo in (mesh, ring, line)
    ]
    assert bounds[0] < bounds[1] < bounds[2]


def test_distribution_bound_shrinks_with_bandwidth():
    slow = ring_topology(6, bandwidth=1e6)
    fast = ring_topology(6, bandwidth=1e9)
    assert (distribution_bound(fast, LaneModel(fast))
            < distribution_bound(slow, LaneModel(slow)))


def test_diameter_fallback_counted_once_per_prepare(monkeypatch):
    # The switch lead is the budget's distribution bound, derived once:
    # one prepare() asks for the diameter, and counts its fallback, once.
    monkeypatch.setattr(Router, "diameter", lambda self, excluding=None: None)
    system = BTRSystem(industrial_workload(), full_mesh_topology(5),
                       BTRConfig(f=1))
    system.prepare()
    assert system.metrics.counter_value("budget_diameter_fallback",
                                        reason="not_connected") == 1
    # Every run's metrics start from the set-up counters, which stay put.
    for _ in range(2):
        assert system.run(2).metrics["counters"][
            "budget_diameter_fallback{reason=not_connected}"] == 1
    assert system.metrics.counter_value("budget_diameter_fallback",
                                        reason="not_connected") == 1


def test_detection_bound_dominated_by_omission_accumulation():
    period = ms(50)
    bound = detection_bound(period)
    assert bound >= 3 * period  # slot accumulation dominates


def test_compute_budget_components_positive_and_consistent():
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=1))
    budget = system.prepare()
    assert budget.detection_us > 0
    assert budget.distribution_us > 0
    assert budget.switch_us > budget.distribution_us  # lead + period
    assert budget.settling_us >= industrial_workload().period
    assert budget.total_us == (budget.detection_us + budget.distribution_us
                               + budget.switch_us + budget.settling_us)


def test_settling_includes_worst_state_transfer():
    # A strategy whose transitions move big state must budget more
    # settling than one whose transitions move nothing.
    topo = full_mesh_topology(7, bandwidth=1e8)
    system = BTRSystem(industrial_workload(), topo, BTRConfig(f=1, seed=1))
    system.prepare()
    lane_model = system.lane_model
    budget = compute_budget(system.strategy, topo, lane_model)
    worst_bits = system.strategy.max_transition_state_bits()
    if worst_bits:
        assert budget.settling_us > industrial_workload().period

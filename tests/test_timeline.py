"""Tests for the recovery timeline ``repro run --timeline`` prints."""

import pytest

from repro import BTRConfig, BTRSystem
from repro.faults import single_fault
from repro.net import full_mesh_topology
from repro.obs import MILESTONES, reconstruct_timelines, render_timeline
from repro.workload import industrial_workload


@pytest.fixture(scope="module")
def faulted_run():
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=41))
    system.prepare()
    return system.run(24, single_fault(system, "crash", at=220_000).script)


@pytest.fixture(scope="module")
def clean_run():
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=41))
    system.prepare()
    return system.run(12)


def test_timeline_tells_the_whole_story(faulted_run):
    timelines = reconstruct_timelines(faulted_run)
    assert len(timelines) == 1
    t = timelines[0]
    assert t.fault_kind == "crash"
    # The canonical arc: every milestone is observed ...
    for stage in MILESTONES:
        assert t.milestones[stage] is not None, f"missing stage {stage}"
    # ... in order: fault -> detect -> spread -> switch -> recovered.
    recovered = t.manifest_us + t.total_us
    assert t.manifest_us < t.milestones["first_charge"]
    assert t.milestones["first_charge"] <= t.milestones["conviction"]
    assert t.milestones["conviction"] <= t.milestones["quorum"]
    assert t.milestones["first_charge"] < t.milestones["switch_boundary"]
    assert t.milestones["switch_boundary"] <= recovered
    assert t.phase_sum() == t.total_us > 0
    # The rendered timeline names the fault on its own row.
    rows = render_timeline(faulted_run).splitlines()
    assert any(row.split()[:2] == ["crash", t.node] for row in rows)


def test_clean_run_timeline_is_empty(clean_run):
    assert reconstruct_timelines(clean_run) == []
    assert "no faults injected" in render_timeline(clean_run)

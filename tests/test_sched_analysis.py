"""Tests for the mixed-criticality shedding order."""

import pytest

from repro.sched import keep_levels, shed_workload, shedding_ladder
from repro.workload import Criticality, avionics_workload


def test_keep_levels():
    assert keep_levels(1) == {Criticality.A}
    assert keep_levels(4) == set(Criticality.ordered())
    with pytest.raises(ValueError):
        keep_levels(5)


def test_shed_workload_drops_low_criticality():
    g = avionics_workload()
    shed = shed_workload(g, {Criticality.A})
    assert "ctrl_law" in shed.tasks
    assert "ife_head" not in shed.tasks
    shed.validate()
    # All surviving sink flows are criticality A.
    assert all(shed.flow_criticality(f) == Criticality.A
               for f in shed.sink_flows())


def test_shed_workload_keeps_upstream_dependencies():
    g = avionics_workload()
    shed = shed_workload(g, {Criticality.A})
    # ctrl_law depends on nav (criticality B) via autopilot; nav must stay.
    assert "nav" in shed.tasks


def test_shedding_ladder_is_monotone():
    g = avionics_workload()
    ladder = shedding_ladder(g)
    sizes = [len(w.tasks) for w in ladder]
    assert sizes[0] == len(g.tasks)
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    for rung in ladder:
        rung.validate()

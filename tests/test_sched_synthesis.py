"""Tests for the global schedule synthesizer and lane model."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import bus_topology, full_mesh_topology, line_topology
from repro.sched import (
    LANE_FRACTIONS,
    AssignmentError,
    LaneModel,
    NodeSchedule,
    PlannedTransmission,
    ScheduleEntry,
    ScheduleError,
    synthesize,
)
from repro.sim import DeterministicRandom, MessageKind, ms
from repro.workload import (
    DataflowGraph,
    Flow,
    Task,
    pipeline_workload,
    random_workload,
)


def deploy(workload, topo):
    topo.place_endpoints_round_robin(workload.sources, workload.sinks)


# -------------------------------------------------------------------- table


def test_schedule_entry_validation():
    with pytest.raises(ScheduleError):
        ScheduleEntry("t", 10, 10)
    with pytest.raises(ScheduleError):
        ScheduleEntry("t", -1, 5)


def test_planned_transmission_validation():
    ok = PlannedTransmission("f", "n0", "n1", "l0", 5, 6, 8)
    assert ok == PlannedTransmission(flow="f", sender="n0", receiver="n1",
                                     link_id="l0", start=5, arrival=6,
                                     size_bits=8)
    assert repr(ok) == ("PlannedTransmission(flow='f', sender='n0', "
                        "receiver='n1', link_id='l0', start=5, arrival=6, "
                        "size_bits=8)")
    for arrival in (5, 4):
        with pytest.raises(ScheduleError):
            PlannedTransmission("f", "n0", "n1", "l0", 5, arrival)


def test_node_schedule_rejects_overlap():
    sched = NodeSchedule("n0", period=100)
    sched.add(ScheduleEntry("a", 0, 50))
    with pytest.raises(ScheduleError):
        sched.add(ScheduleEntry("b", 40, 60))
    sched.add(ScheduleEntry("b", 50, 60))
    assert len(sched) == 2
    assert sum(e.duration for e in sched) == 60


def test_node_schedule_rejects_period_overrun():
    sched = NodeSchedule("n0", period=100)
    with pytest.raises(ScheduleError):
        sched.add(ScheduleEntry("a", 90, 110))


# --------------------------------------------------------------------- lanes


def test_lane_fractions_validation():
    # Every traffic class gets a lane, and one sender's lanes never
    # overbook a link.
    assert set(LANE_FRACTIONS) == set(MessageKind)
    assert min(LANE_FRACTIONS.values()) > 0
    assert sum(LANE_FRACTIONS.values()) <= 1.0


def test_lane_model_share_splits_among_endpoints():
    topo = line_topology(2, bandwidth=1e6)
    model = LaneModel(topo)  # DATA: half the link
    link = topo.links["l0"]
    assert model.share(link, MessageKind.DATA) == pytest.approx(0.25)


def allocated(link):
    """The link's reserved share: one lane per (endpoint, kind), each of
    which must exist."""
    return sum(link.lane(sender, kind).share
               for sender in link.endpoints
               for kind in (MessageKind.DATA, MessageKind.STATE,
                            MessageKind.EVIDENCE, MessageKind.CONTROL))


def test_lane_model_install_allocates_everything():
    topo = line_topology(3)
    LaneModel(topo).install()
    for link in topo.links.values():
        assert allocated(link) <= 1.0 + 1e-9


def test_lane_model_install_is_idempotent():
    topo = line_topology(2)
    model = LaneModel(topo)
    model.install()
    allocated_once = allocated(topo.links["l0"])
    model.install()
    assert allocated(topo.links["l0"]) == allocated_once <= 1.0 + 1e-9


def test_transmission_us_ceils():
    topo = line_topology(2, bandwidth=1e6)  # 1 bit/us raw
    model = LaneModel(topo)  # DATA: 0.25 bits/us per lane
    link = topo.links["l0"]
    assert model.transmission_us(link, MessageKind.DATA, 100) == 400


def test_transmission_us_is_computed_once_per_link_kind_and_size():
    topo = line_topology(3, bandwidth=1e6)
    model = LaneModel(topo)
    first, second = topo.links["l0"], topo.links["l1"]
    assert model.transmission_us(first, MessageKind.DATA, 100) == 400
    assert model.transmission_us(first, MessageKind.STATE, 100) == 1000
    assert model.transmission_us(second, MessageKind.DATA, 100) == 400
    assert model.transmission_us(first, MessageKind.DATA, 101) == 404
    assert model.transmission_us(first, MessageKind.DATA, 100) == 400
    assert len(model._durations) == 4


def runtime_duration(link, sender, kind, bits):
    """What the hop runtime charges one send on an installed lane
    (``BatchRuntime.send``, ``flood_messages``, the heartbeat plans)."""
    rate = link.lane(sender, kind).rate_bits_per_us
    return max(1, int(round(bits / rate)))


@settings(max_examples=300, deadline=None)
@given(bandwidth=st.floats(min_value=1e3, max_value=1e10),
       endpoints=st.integers(min_value=2, max_value=8),
       kind=st.sampled_from(list(MessageKind)),
       bits=st.integers(min_value=0, max_value=10 ** 7))
def test_property_runtime_hop_is_never_longer_than_planned(
        bandwidth, endpoints, kind, bits):
    """The planner rounds a hop's duration up and the runtime rounds it
    to nearest, on the same lane rate: an executed hop takes the planned
    time or 1 µs less, never more."""
    topo = bus_topology(endpoints, bandwidth=bandwidth)
    model = LaneModel(topo)
    model.install()
    link = topo.links["bus"]
    planned = model.transmission_us(link, kind, bits)
    for sender in link.endpoints:
        assert planned - 1 <= runtime_duration(link, sender, kind, bits) \
            <= planned


# ----------------------------------------------------------------- synthesis


def test_pipeline_on_two_nodes_is_feasible():
    wl = pipeline_workload(n_stages=2, period=ms(20), wcet=500)
    topo = line_topology(2, bandwidth=1e7)
    deploy(wl, topo)
    schedule = synthesize(
        wl, {"pipeline.t0": "n0", "pipeline.t1": "n1"}, topo)
    assert schedule.feasible, schedule.violations
    # Both tasks have slots; t1 starts after t0's output arrives.
    slot0 = schedule.slot_for("pipeline.t0")
    slot1 = schedule.slot_for("pipeline.t1")
    assert slot0 is not None and slot1 is not None
    assert slot1.start >= slot0.finish


def test_same_node_flows_have_zero_network_delay():
    wl = pipeline_workload(n_stages=2, period=ms(20), wcet=500)
    topo = line_topology(2, bandwidth=1e7)
    deploy(wl, topo)
    schedule = synthesize(
        wl, {"pipeline.t0": "n0", "pipeline.t1": "n0"}, topo)
    slot0 = schedule.slot_for("pipeline.t0")
    slot1 = schedule.slot_for("pipeline.t1")
    assert slot1.start == slot0.finish
    # Internal flow generated no transmissions unless endpoints demand it.
    internal = [t for t in schedule.transmissions if t.flow == "pipeline.f0"]
    assert internal == []


def test_node_contention_serializes_tasks():
    period = ms(50)
    wl = DataflowGraph(
        period=period,
        tasks=[Task("a", wcet=1000), Task("b", wcet=1000)],
        flows=[
            Flow("in_a", src="s", dst="a"),
            Flow("in_b", src="s", dst="b"),
            Flow("out_a", src="a", dst="k", deadline=period),
            Flow("out_b", src="b", dst="k", deadline=period),
        ],
        sources=["s"], sinks=["k"],
    )
    topo = line_topology(2, bandwidth=1e7)
    topo.place_endpoint("s", "n0")
    topo.place_endpoint("k", "n0")
    schedule = synthesize(wl, {"a": "n0", "b": "n0"}, topo)
    slots = sorted(
        (schedule.slot_for(t) for t in ("a", "b")), key=lambda s: s.start)
    assert slots[0].finish <= slots[1].start


def test_unassigned_task_raises():
    wl = pipeline_workload(n_stages=2)
    topo = line_topology(2)
    deploy(wl, topo)
    with pytest.raises(AssignmentError):
        synthesize(wl, {"pipeline.t0": "n0"}, topo)


def test_assignment_to_excluded_node_raises():
    wl = pipeline_workload(n_stages=1)
    topo = line_topology(2)
    deploy(wl, topo)
    with pytest.raises(AssignmentError):
        synthesize(wl, {"pipeline.t0": "n1"}, topo,
                   excluding={"n1"})


def test_deadline_violation_reported_not_raised():
    wl = pipeline_workload(n_stages=1, period=ms(20), wcet=500,
                           deadline=ms(1))
    # Slow link: the sink flow cannot make a 1 ms deadline across it.
    topo = line_topology(2, bandwidth=1e4)
    topo.place_endpoint("pipeline.sensor", "n0")
    topo.place_endpoint("pipeline.actuator", "n1")
    schedule = synthesize(wl, {"pipeline.t0": "n0"}, topo)
    assert not schedule.feasible
    assert any("deadline" in v for v in schedule.violations)


def test_wcet_overrun_of_period_reported():
    wl = pipeline_workload(n_stages=1, period=ms(1), wcet=ms(2))
    topo = line_topology(2, bandwidth=1e7)
    deploy(wl, topo)
    schedule = synthesize(wl, {"pipeline.t0": "n0"}, topo)
    assert any("period" in v for v in schedule.violations)


def test_routing_failure_reported_as_violation():
    wl = pipeline_workload(n_stages=2, period=ms(20))
    topo = line_topology(3, bandwidth=1e7)
    topo.place_endpoint("pipeline.sensor", "n0")
    topo.place_endpoint("pipeline.actuator", "n0")
    # t1 on n2 but n1 (the only route) is excluded -> no path.
    schedule = synthesize(
        wl, {"pipeline.t0": "n0", "pipeline.t1": "n2"}, topo,
        excluding={"n1"})
    assert not schedule.feasible
    assert any("no route" in v for v in schedule.violations)


def test_slower_node_stretches_execution():
    wl = pipeline_workload(n_stages=1, period=ms(20), wcet=1000)
    topo = full_mesh_topology(2, bandwidth=1e7, speed=0.5)
    deploy(wl, topo)
    schedule = synthesize(wl, {"pipeline.t0": "n0"}, topo)
    slot = schedule.slot_for("pipeline.t0")
    # fg speed = 0.5 x (1 - 0.1 control share) -> 1000 us wcet takes
    # 2222.2 us, rounded up.
    assert slot.duration == 2223


def test_bigger_flow_takes_longer_on_the_wire():
    wl = pipeline_workload(n_stages=2, period=ms(20))
    big = DataflowGraph(
        wl.period, wl.tasks.values(),
        [replace(f, size_bits=50_000) if f.name == "pipeline.f0" else f
         for f in wl.flows],
        wl.sources, wl.sinks, wl.name)
    topo = line_topology(2, bandwidth=1e6)
    deploy(wl, topo)
    assignment = {"pipeline.t0": "n0", "pipeline.t1": "n1"}
    base = synthesize(wl, assignment, topo)
    bigger = synthesize(big, assignment, topo)
    hop_base, hop_big = ([t for t in s.transmissions
                          if t.flow == "pipeline.f0"][-1]
                         for s in (base, bigger))
    assert hop_big.arrival - hop_big.start > hop_base.arrival - hop_base.start
    assert bigger.total_bits() > base.total_bits()


def test_link_contention_serializes_transmissions():
    period = ms(50)
    wl = DataflowGraph(
        period=period,
        tasks=[Task("a", wcet=100), Task("b", wcet=100)],
        flows=[
            Flow("in_a", src="s", dst="a", size_bits=128),
            Flow("in_b", src="s", dst="b", size_bits=128),
            Flow("out_a", src="a", dst="k", deadline=period,
                 size_bits=10_000),
            Flow("out_b", src="b", dst="k", deadline=period,
                 size_bits=10_000),
        ],
        sources=["s"], sinks=["k"],
    )
    topo = line_topology(2, bandwidth=1e6)
    topo.place_endpoint("s", "n0")
    topo.place_endpoint("k", "n1")
    schedule = synthesize(wl, {"a": "n0", "b": "n0"}, topo)
    hops = sorted((t for t in schedule.transmissions
                   if t.flow in ("out_a", "out_b")), key=lambda t: t.start)
    assert len(hops) == 2
    # Same sender lane: second starts no earlier than first finishes
    # (arrival - propagation = serialization end).
    link = topo.links["l0"]
    assert hops[1].start >= hops[0].arrival - link.propagation_us


def test_makespan_and_utilization():
    wl = pipeline_workload(n_stages=2, period=ms(20), wcet=500)
    topo = line_topology(2, bandwidth=1e7)
    deploy(wl, topo)
    schedule = synthesize(
        wl, {"pipeline.t0": "n0", "pipeline.t1": "n1"}, topo)
    assert schedule.makespan() > 0
    assert all(schedule.node_schedules[n].busy_until() > 0
               for n in ("n0", "n1"))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_synthesis_is_deterministic(seed):
    rng = DeterministicRandom(seed)
    wl = random_workload(rng, n_tasks=8, n_layers=2, period=ms(100))
    topo = full_mesh_topology(4, bandwidth=1e7)
    deploy(wl, topo)
    nodes = topo.node_ids()
    assignment = {t: nodes[i % len(nodes)]
                  for i, t in enumerate(sorted(wl.tasks))}
    s1 = synthesize(wl, assignment, topo)
    s2 = synthesize(wl, assignment, topo)
    assert s1.arrivals == s2.arrivals
    assert [
        (t.flow, t.start, t.arrival) for t in s1.transmissions
    ] == [(t.flow, t.start, t.arrival) for t in s2.transmissions]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_feasible_schedules_meet_all_deadlines(seed):
    rng = DeterministicRandom(seed)
    wl = random_workload(rng, n_tasks=6, n_layers=2, period=ms(100))
    topo = full_mesh_topology(3, bandwidth=1e7)
    deploy(wl, topo)
    nodes = topo.node_ids()
    assignment = {t: nodes[i % len(nodes)]
                  for i, t in enumerate(sorted(wl.tasks))}
    schedule = synthesize(wl, assignment, topo)
    if schedule.feasible:
        for flow in wl.sink_flows():
            assert schedule.arrivals[flow.name] <= flow.deadline
        for name in wl.tasks:
            slot = schedule.slot_for(name)
            assert slot is not None and slot.finish <= wl.period

"""The columnar trace: a hop handed over as a row reads back exactly as
the event ``record()`` would have stored, from every public method, and
the fingerprint cannot tell the two apart."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import BTRConfig, BTRSystem
from repro.analysis import traffic_bits
from repro.faults.scenarios import stage
from repro.net import full_mesh_topology
from repro.sim.trace import (
    HOP_KINDS,
    MILESTONE_KINDS,
    TRACE_MODES,
    FaultInjected,
    MessageSent,
    TaskExecuted,
    Trace,
    trace_fingerprint,
)
from repro.workload import industrial_workload

ALL_KINDS = sorted(HOP_KINDS | MILESTONE_KINDS, key=lambda k: k.__name__)

#: One value per dataclass field annotation, varied by a small int.
FIELD_VALUES = {
    "str": lambda n: f"s{n}",
    "int": lambda n: n,
    "Optional[str]": lambda n: None if n % 2 else f"f{n}",
    "Any": lambda n: n,
    "tuple": lambda n: ("a", f"b{n}"),
    "dict": lambda n: {"n": n},
}


def build(kind, time: int, n: int):
    return kind(time, *(FIELD_VALUES[f.type](n + i) for i, f in
                        enumerate(dataclasses.fields(kind)[1:])))


def as_row(event) -> tuple:
    return (type(event),) + dataclasses.astuple(event)[1:]


def test_the_two_kind_sets_cover_all_fourteen_kinds():
    assert len(ALL_KINDS) == 14
    assert not HOP_KINDS & MILESTONE_KINDS


steps = st.lists(
    st.tuples(st.integers(0, 3),                    # time since last event
              st.integers(0, len(ALL_KINDS) - 1),   # kind
              st.integers(0, 5),                    # field values
              st.booleans(),                        # hop as row?
              st.booleans()),                       # query mid-stream?
    max_size=60)


@settings(deadline=None, max_examples=120)
@given(steps)
def test_rows_read_back_as_the_events_record_would_have_kept(steps):
    objects, columns = Trace(), Trace()
    now = 0
    for dt, kind_index, n, row, query in steps:
        now += dt
        event = build(ALL_KINDS[kind_index], now, n)
        objects.record(event)
        if row and type(event) in HOP_KINDS:
            columns.record_row(now, as_row(event))
        else:
            columns.record(build(ALL_KINDS[kind_index], now, n))
        if query:
            # The census is read while the trace still grows.
            assert (columns.count(type(event))
                    == objects.count(type(event)))
    assert list(columns) == list(objects)
    assert len(columns) == len(objects) == len(steps)
    for kind in ALL_KINDS:
        assert columns.of_kind(kind) == objects.of_kind(kind)
        assert columns.last(kind) == objects.last(kind)
        assert columns.count(kind) == objects.count(kind)
    assert columns.kind_counts() == objects.kind_counts()
    assert trace_fingerprint(columns) == trace_fingerprint(objects)


census_steps = st.lists(
    st.tuples(st.integers(0, 3),                    # time since last event
              st.integers(0, len(ALL_KINDS) - 1),   # kind
              st.integers(0, 5),                    # field values
              st.sampled_from(("record", "row", "tally")),
              st.integers(1, 4)),                   # events tallied
    max_size=60)


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(TRACE_MODES), census_steps)
def test_the_census_is_iteration_plus_tallies(mode, steps):
    trace = Trace(mode=mode)
    tallied = Counter()
    now = 0
    for dt, kind_index, n, how, many in steps:
        now += dt
        kind = ALL_KINDS[kind_index]
        if how == "tally":
            trace.tally(kind, many)
            tallied[kind.__name__] += many
            continue
        event = build(kind, now, n)
        if how == "row" and kind in HOP_KINDS:
            trace.record_row(now, as_row(event))
        else:
            trace.record(event)
        if not trace.retains(kind):
            tallied[kind.__name__] += 1
    census = Counter(type(event).__name__ for event in trace) + tallied
    assert trace.kind_counts() == dict(sorted(census.items()))
    for kind in ALL_KINDS:
        assert trace.count(kind) == census[kind.__name__]


@pytest.mark.parametrize("scenario", [None, "single_commission",
                                      "single_crash"])
def test_a_run_has_one_census_in_every_mode(scenario):
    """The milestones census of a run is its full census, and the full
    census counts what iterating the full trace yields."""
    censuses = {}
    for mode in TRACE_MODES:
        system = BTRSystem(industrial_workload(),
                           full_mesh_topology(5, bandwidth=1e8),
                           BTRConfig(f=1, seed=5, trace_mode=mode))
        system.prepare()
        staged = stage(scenario, system) if scenario else None
        result = system.run(
            10, adversary=staged.script if staged else None,
            link_script=staged.link_script if staged else None)
        censuses[mode] = result.trace.kind_counts()
        if mode == "full":
            iterated = Counter(type(event).__name__
                               for event in result.trace)
    assert censuses["full"] == censuses["milestones"] \
        == dict(sorted(iterated.items()))


def test_out_of_order_row_raises_what_an_out_of_order_event_raises():
    late = TaskExecuted(time=5, node="n", task="t", period_index=0,
                        duration=1)
    messages = []
    for hand_over in (lambda t: t.record(late),
                      lambda t: t.record_row(5, as_row(late))):
        for first_as_row in (False, True):
            trace = Trace()
            first = MessageSent(time=10, src="a", dst="b", kind="data",
                                size_bits=8)
            if first_as_row:
                trace.record_row(10, as_row(first))
            else:
                trace.record(first)
            with pytest.raises(ValueError) as caught:
                hand_over(trace)
            messages.append(str(caught.value))
            assert len(trace) == 1
    assert set(messages) == {"out-of-order trace event at 5 (last was 10)"}


@pytest.mark.parametrize("mode", TRACE_MODES)
def test_a_row_of_a_milestone_kind_is_refused_when_handed_over(mode):
    trace = Trace(mode=mode)
    with pytest.raises(KeyError):
        trace.record_row(1, (FaultInjected, "n0", "crash"))
    assert len(trace) == 0
    assert trace.kind_counts() == {}


@pytest.mark.parametrize("mode", TRACE_MODES)
def test_record_of_a_hop_event_retains_in_full_and_tallies_elsewhere(mode):
    # benchmarks/e2e/probes.py::probe_trace_record depends on this.
    trace = Trace(mode=mode)
    event = MessageSent(time=1, src="n0", dst="n1", kind="data",
                        size_bits=1024, flow="f")
    trace.record(event)
    trace.record_row(2, as_row(event))
    retained = 2 if mode == "full" else 0
    assert len(trace) == retained
    assert trace.count(MessageSent) == 2
    assert trace.kind_counts() == {"MessageSent": 2}
    if retained:
        # A recorded event is kept and returned as the object it is; a
        # row becomes an event only on the way out.
        assert trace.of_kind(MessageSent)[0] is event
        assert list(trace)[0] is event
        assert trace.last(MessageSent) == dataclasses.replace(event, time=2)


def test_traffic_bits_reads_hop_rows():
    """``analysis.metrics.traffic_bits`` is the one consumer of a hop
    kind in ``src/``; the value is pinned from the object-per-hop trace
    at 8fb9a30 on E17's single_commission cell."""
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=42, trace_mode="full"))
    system.prepare()
    scenario = stage("single_commission", system)
    result = system.run(12, adversary=scenario.script,
                        link_script=scenario.link_script)
    assert traffic_bits(result) == {
        "data": 2105344, "control": 390144, "evidence": 404064,
        "state": 51200}
    assert len(result.trace) == 7639

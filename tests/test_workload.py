"""Tests for the dataflow workload model and generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import DeterministicRandom, ms
from repro.workload import (
    Criticality,
    DataflowGraph,
    Flow,
    Task,
    WorkloadError,
    automotive_workload,
    avionics_workload,
    compute_output,
    industrial_workload,
    pipeline_workload,
    random_workload,
    sensor_reading,
    stretched_workload,
)


# --------------------------------------------------------------- criticality


def test_criticality_ordering():
    assert Criticality.A > Criticality.B > Criticality.C > Criticality.D
    assert Criticality.ordered() == [
        Criticality.A, Criticality.B, Criticality.C, Criticality.D
    ]


def test_criticality_min_max():
    levels = [Criticality.C, Criticality.A, Criticality.D]
    assert max(levels) == Criticality.A
    assert min(levels) == Criticality.D


# --------------------------------------------------------------------- task


def test_task_validation():
    with pytest.raises(ValueError):
        Task("bad", wcet=0)
    with pytest.raises(ValueError):
        Task("bad", wcet=10, state_bits=-1)


def test_reference_semantics_deterministic():
    assert sensor_reading("s", 3) == sensor_reading("s", 3)
    assert sensor_reading("s", 3) != sensor_reading("s", 4)
    a = compute_output("t", 0, [1, 2, 3])
    assert a == compute_output("t", 0, [3, 1, 2])  # order-independent
    assert a != compute_output("t", 1, [1, 2, 3])
    assert a != compute_output("u", 0, [1, 2, 3])


# ----------------------------------------------------------------- dataflow


def simple_graph(**kwargs):
    defaults = dict(
        period=ms(20),
        tasks=[Task("t1", wcet=100), Task("t2", wcet=100)],
        flows=[
            Flow("in", src="src", dst="t1"),
            Flow("mid", src="t1", dst="t2"),
            Flow("out", src="t2", dst="sink", deadline=ms(10)),
        ],
        sources=["src"],
        sinks=["sink"],
    )
    defaults.update(kwargs)
    return DataflowGraph(**defaults)


def test_valid_graph_builds():
    g = simple_graph()
    assert g.topological_order() == ["t1", "t2"]
    assert [f.name for f in g.sink_flows()] == ["out"]
    assert [f.name for f in g.inputs_of("t2")] == ["mid"]
    assert [f.name for f in g.outputs_of("t1")] == ["mid"]


def test_cycle_detected():
    with pytest.raises(WorkloadError, match="cycle"):
        simple_graph(flows=[
            Flow("in", src="src", dst="t1"),
            Flow("a", src="t1", dst="t2"),
            Flow("b", src="t2", dst="t1"),
            Flow("out", src="t2", dst="sink", deadline=ms(10)),
        ])


def test_task_without_output_rejected():
    with pytest.raises(WorkloadError, match="no outputs"):
        simple_graph(flows=[
            Flow("in", src="src", dst="t1"),
            Flow("in2", src="src", dst="t2"),
            Flow("out", src="t2", dst="sink", deadline=ms(10)),
        ])


def test_sink_flow_requires_deadline():
    with pytest.raises(WorkloadError, match="deadline"):
        simple_graph(flows=[
            Flow("in", src="src", dst="t1"),
            Flow("mid", src="t1", dst="t2"),
            Flow("out", src="t2", dst="sink"),
        ])


def test_deadline_must_fit_period():
    with pytest.raises(WorkloadError, match="exceeds"):
        simple_graph(flows=[
            Flow("in", src="src", dst="t1"),
            Flow("mid", src="t1", dst="t2"),
            Flow("out", src="t2", dst="sink", deadline=ms(21)),
        ])


def test_unknown_endpoints_rejected():
    with pytest.raises(WorkloadError, match="unknown src"):
        simple_graph(flows=[
            Flow("in", src="ghost", dst="t1"),
            Flow("mid", src="t1", dst="t2"),
            Flow("out", src="t2", dst="sink", deadline=ms(10)),
        ])


def test_duplicate_task_name_rejected():
    with pytest.raises(WorkloadError, match="duplicate task"):
        simple_graph(tasks=[Task("t1", wcet=1), Task("t1", wcet=2),
                            Task("t2", wcet=1)])


def test_role_overlap_rejected():
    with pytest.raises(WorkloadError, match="multiple roles"):
        simple_graph(sources=["src", "t1"])


def test_direct_source_to_sink_rejected():
    with pytest.raises(WorkloadError, match="source-to-sink"):
        simple_graph(flows=[
            Flow("in", src="src", dst="t1"),
            Flow("mid", src="t1", dst="t2"),
            Flow("out", src="t2", dst="sink", deadline=ms(10)),
            Flow("bad", src="src", dst="sink", deadline=ms(10)),
        ])


def test_flow_criticality_inherits_from_producer():
    g = simple_graph(tasks=[
        Task("t1", wcet=100, criticality=Criticality.A),
        Task("t2", wcet=100, criticality=Criticality.C),
    ])
    assert g.flow_criticality(g.flow("mid")) == Criticality.A
    assert g.flow_criticality(g.flow("out")) == Criticality.C


def test_upstream_closure():
    g = avionics_workload()
    closure = g.upstream_closure("ctrl_law")
    assert closure == {"ctrl_law", "fusion", "nav", "autopilot"}


def test_tasks_feeding_sink_flow():
    g = avionics_workload()
    flow = g.flow("elevator_cmd")
    assert "ctrl_law" in g.tasks_feeding_sink_flow(flow)
    assert "ife_head" not in g.tasks_feeding_sink_flow(flow)


def test_graphs_compare_by_value_and_are_not_hashed():
    g = avionics_workload()
    assert g == avionics_workload()
    assert g != g.restricted_to(set(g.tasks), name=g.name + "'")
    assert g != g.restricted_to(set(g.tasks) - {"ife_head"}, name=g.name)
    assert g.find_flow("elevator_cmd") is g.flow("elevator_cmd")
    assert g.find_flow("no such flow") is None
    with pytest.raises(TypeError):
        hash(g)


def test_restricted_to_drops_tasks_and_flows():
    g = avionics_workload()
    keep = {n for n, t in g.tasks.items()
            if t.criticality >= Criticality.B}
    sub = g.restricted_to(keep)
    assert "ife_head" not in sub.tasks
    assert all(f.src in sub.tasks or f.src in sub.sources
               for f in sub.flows)
    sub.validate()


# --------------------------------------------------------------- generators


@pytest.mark.parametrize("factory", [
    avionics_workload, industrial_workload, automotive_workload,
])
def test_domain_workloads_are_valid(factory):
    g = factory()
    g.validate()
    assert g.sink_flows()
    crits = {g.flow_criticality(f) for f in g.sink_flows()}
    assert Criticality.A in crits  # every domain has a safety-critical output
    assert Criticality.D in crits  # and a sheddable one


def test_avionics_has_mixed_criticality_tasks():
    g = avionics_workload()
    levels = {t.criticality for t in g.tasks.values()}
    assert levels == set(Criticality.ordered())


def test_pipeline_workload_shape():
    g = pipeline_workload(n_stages=4)
    assert len(g.tasks) == 4
    assert g.topological_order() == [f"pipeline.t{i}" for i in range(4)]


def test_pipeline_workload_rejects_zero_stages():
    with pytest.raises(ValueError):
        pipeline_workload(n_stages=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_tasks=st.integers(min_value=3, max_value=30),
    n_layers=st.integers(min_value=1, max_value=3),
)
def test_property_random_workloads_always_valid(seed, n_tasks, n_layers):
    n_layers = min(n_layers, n_tasks)
    rng = DeterministicRandom(seed)
    g = random_workload(rng, n_tasks=n_tasks, n_layers=n_layers)
    g.validate()
    assert len(g.tasks) == n_tasks
    # Every task reachable in topological order, every sink flow deadlined.
    assert len(g.topological_order()) == n_tasks
    assert all(f.deadline is not None for f in g.sink_flows())


def test_random_workload_is_seed_deterministic():
    g1 = random_workload(DeterministicRandom(99), n_tasks=12)
    g2 = random_workload(DeterministicRandom(99), n_tasks=12)
    assert [t.name for t in g1.tasks.values()] == [
        t.name for t in g2.tasks.values()]
    assert [(f.name, f.src, f.dst) for f in g1.flows] == [
        (f.name, f.src, f.dst) for f in g2.flows]


# ----------------------------------------------------------- stretched loads


def test_stretch_scales_periods_and_deadlines_only():
    base = industrial_workload()
    slow = stretched_workload(base, 10)
    assert slow.period == base.period * 10
    assert slow.name == f"{base.name}x10"
    base_flows = {f.name: f for f in base.flows}
    for flow in slow.flows:
        ref = base_flows[flow.name]
        if ref.deadline is None:
            assert flow.deadline is None
        else:
            assert flow.deadline == ref.deadline * 10
    assert {t.name: t.wcet for t in slow.tasks.values()} \
        == {t.name: t.wcet for t in base.tasks.values()}


def test_stretch_of_one_is_identity():
    base = industrial_workload()
    assert stretched_workload(base, 1) is base


def test_stretch_below_one_is_refused():
    with pytest.raises(WorkloadError):
        stretched_workload(industrial_workload(), 0)

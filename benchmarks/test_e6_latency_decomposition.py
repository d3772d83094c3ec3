"""E6 — Where the recovery time goes: detect, distribute, switch.

Paper claims (§4.2–4.4): BTR needs a time bound on detection, bounded-time
evidence distribution, and coordinated mode changes. We decompose the
measured recovery latency into those three stages, per fault kind and per
topology, and check every stage against its budgeted bound. The stages
are spans between the fault's recovery-timeline milestones
(``reconstruct_timelines``): manifest -> conviction (detection) ->
quorum (distribution) -> switch boundary (switch).
"""

import pytest

from harness import one_shot, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import format_table
from repro.faults import single_fault
from repro.net import full_mesh_topology, mesh_topology, ring_topology
from repro.obs import reconstruct_timelines
from repro.sim import to_seconds
from repro.workload import industrial_workload

N_PERIODS = 30
FAULT_AT = 220_000

TOPOLOGIES = {
    "fullmesh7": lambda: full_mesh_topology(7, bandwidth=1e8),
    "ring7": lambda: ring_topology(7, bandwidth=1e8),
    "mesh3x3": lambda: mesh_topology(3, 3, bandwidth=1e8),
}

KINDS = ("commission", "crash", "omission")

#: The timeline milestones that bound each stage, in order.
STAGE_MARKS = ("conviction", "quorum", "switch_boundary")


def stages(result):
    """``(detection, distribution, switch, total)`` µs of the run's one
    fault; a stage whose milestone never came is None, and so is the
    total then."""
    (timeline,) = reconstruct_timelines(result)
    marks = [timeline.manifest_us] + [timeline.milestones[name]
                                      for name in STAGE_MARKS]
    spans = [None if a is None or b is None else b - a
             for a, b in zip(marks, marks[1:])]
    total = None if None in spans else sum(spans)
    return (*spans, total)


def run_experiment():
    rows = []
    checks = []
    for topo_name, factory in TOPOLOGIES.items():
        for kind in KINDS:
            system = BTRSystem(industrial_workload(), factory(),
                               BTRConfig(f=1, seed=23))
            budget = system.prepare()
            result = system.run(N_PERIODS, single_fault(
                system, kind, at=FAULT_AT).script)
            spans = stages(result)
            rows.append([topo_name, kind] + [
                to_seconds(us) if us is not None else "-" for us in spans])
            checks.append((topo_name, kind, spans, budget))
    return rows, checks


def fmt(x):
    return f"{x:.4f}s" if isinstance(x, float) else x


def test_e6_latency_decomposition(benchmark):
    rows, checks = one_shot(benchmark, run_experiment)
    write_result("e6_latency_decomposition", format_table(
        "E6: recovery latency decomposition (fault -> evidence -> all "
        "nodes -> mode switch), f=1, industrial workload",
        ["topology", "fault kind", "detection", "distribution", "switch",
         "total"],
        [[r[0], r[1]] + [fmt(v) for v in r[2:]] for r in rows],
    ))
    for topo_name, kind, spans, budget in checks:
        label = f"{topo_name}/{kind}"
        detection, distribution, _switch, total = spans
        assert detection is not None, f"{label}: not detected"
        assert detection <= budget.detection_us, label
        assert distribution <= budget.distribution_us * 3, (
            # Distribution overlaps with ongoing detection on other nodes,
            # so the measured span can exceed the single-record bound a
            # little; 3x is the sanity margin.
            f"{label}: distribution {distribution}"
        )
        assert total <= budget.total_us, label
    # Commission detection (next checker slot) is faster than omission
    # detection (declaration accumulation) on every topology.
    detection = {(t, k): spans[0] for t, k, spans, _ in checks}
    for topo_name in TOPOLOGIES:
        assert (detection[(topo_name, "commission")]
                <= detection[(topo_name, "omission")]), topo_name

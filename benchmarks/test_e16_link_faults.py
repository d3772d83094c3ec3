"""E16 — Link faults: what node-keyed recovery can and cannot do.

Paper hook (§4.2): for unprovable path problems, "the system could then a)
switch to a mode that does not use this particular path, and b) keep track
of which paths have been declared problematic." Our strategy's modes are
keyed by faulty *node* sets — the paper's own sketch — so a dead link is
outside the fault model. This experiment measures the consequences
honestly:

* on a redundant (full-mesh) deployment, a dead link is completely masked
  by the replicated dataflow: zero disruption, zero accusations;
* on a ring whose busiest segment dies, the flows crossing it stay broken
  (there is no path-keyed mode to switch to) — and, crucially, the
  Definition 3.1 checker *reports* the violation rather than excusing it,
  while the adjacency/liveness rules contain any mis-attribution to the
  immediate neighbourhood of the dead link (second-order starvation
  cascades can still implicate a link endpoint whose checkers went
  quiet — the measured, documented residual of the node-keyed model).

Path-keyed interim modes are the documented future work (DESIGN.md).
"""

from collections import Counter

import pytest

from harness import one_shot, write_result
from repro import BTRConfig, BTRSystem
from repro.analysis import btr_verdict, classify_slots, format_table
from repro.net import full_mesh_topology, ring_topology
from repro.workload import industrial_workload

N_PERIODS = 40
DIE_AT = 220_000


def run_mesh():
    system = BTRSystem(industrial_workload(),
                       full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=67))
    system.prepare()
    plan = system.strategy.nominal
    hosts = sorted(set(plan.assignment.values())
                   - set(system.topology.endpoint_map.values()))
    link = system.topology.link_between(hosts[0], hosts[1])
    result = system.run(N_PERIODS,
                        link_script=[(DIE_AT, link.link_id, 1.0)])
    return system, result, link.link_id


def run_ring():
    system = BTRSystem(industrial_workload(),
                       ring_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=67))
    system.prepare()
    plan = system.strategy.nominal
    load = Counter()
    for route in plan.routes.values():
        for a, b in zip(route[:-1], route[1:]):
            load[system.topology.link_between(a, b).link_id] += 1
    busiest = load.most_common(1)[0][0]
    result = system.run(N_PERIODS,
                        link_script=[(DIE_AT, busiest, 1.0)])
    return system, result, busiest


def stats(system, result):
    slots = classify_slots(result)
    disrupted = [s for s in slots if s.status != "correct"]
    implicated = sorted(set().union(*result.final_fault_sets.values()))
    verdict = btr_verdict(result, R_us=system.budget.total_us)
    return disrupted, implicated, verdict


def test_e16_link_faults(benchmark):
    def run():
        mesh = run_mesh()
        ring = run_ring()
        return mesh, ring

    (mesh_sys, mesh_res, mesh_link), (ring_sys, ring_res, ring_link) = \
        one_shot(benchmark, run)
    mesh_disrupted, mesh_implicated, mesh_verdict = stats(mesh_sys, mesh_res)
    ring_disrupted, ring_implicated, ring_verdict = stats(ring_sys, ring_res)

    write_result("e16_link_faults", format_table(
        "E16: a link dies mid-run (industrial workload, f=1)",
        ["deployment", "dead link", "disrupted slots", "nodes implicated",
         "Def. 3.1 verdict"],
        [
            ["full mesh", mesh_link, len(mesh_disrupted),
             ", ".join(mesh_implicated) or "(none)",
             "holds (masked)" if mesh_verdict.holds else "VIOLATED"],
            ["ring (busiest link)", ring_link, len(ring_disrupted),
             ", ".join(ring_implicated) or "(none)",
             "holds" if ring_verdict.holds
             else "violated — correctly reported"],
        ],
    ))

    # Redundant deployment: the dead link is fully masked.
    assert mesh_disrupted == []
    assert mesh_implicated == []
    assert mesh_verdict.holds

    # Ring: flows crossing the dead segment are genuinely broken, the
    # checker says so (no silent wrongness)...
    assert ring_disrupted
    assert not ring_verdict.holds
    assert ring_verdict.violations
    # ...and the damage, while sustained, is partial — the pre-fault
    # periods and surviving periods keep most slots correct.
    total_slots = (len(ring_res.workload.sink_flows())
                   * ring_res.n_periods)
    assert len(ring_disrupted) < 0.95 * total_slots
    # Blame containment: anyone implicated is at or next to the dead link
    # (no fleet-wide cascade of convictions).
    endpoints = set(ring_sys.topology.links[ring_link].endpoints)
    near = set(endpoints)
    for endpoint in endpoints:
        near |= set(ring_sys.topology.neighbors(endpoint))
    assert set(ring_implicated) <= near, (
        f"implicated {ring_implicated} beyond the link neighbourhood"
    )

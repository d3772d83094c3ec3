"""A finished run frees itself: nothing in a run points back into it.

Searches run many systems in one process (sweeps, ``repro check`` paths,
fuzz generations). A run whose agents, roles, queued heap events or hop
runtime point back up into it is freed only by a cyclic collection, so
dead runs pile up between collections and set the process's peak RSS.
Each test warms its scenario up once, switches the cyclic collector off,
then builds, prepares, runs and drops the scenario's systems, and
asserts that ``gc.collect()`` finds nothing left: reference counting
freed every object.
"""

import gc

import pytest

from repro import BTRConfig, BTRSystem, Deployment
from repro.baselines import BASELINES
from repro.faults import script_from_dict, single_fault
from repro.fuzz import FuzzParams
from repro.fuzz.campaign import _evaluate
from repro.mc import judge
from repro.mc.campaign import prepare_campaign
from repro.net import full_mesh_topology
from repro.obs import export_run
from repro.perf.batchcore import sibling_system
from repro.sim.time import NEVER
from repro.verify.bounds import compute_bounds
from repro.workload import industrial_workload

PIPELINE = Deployment("pipeline", "fullmesh:4", seed=0)


def unreachable_after(scenario) -> int:
    """Objects the cyclic collector finds once ``scenario`` has run and
    dropped everything it built. A first, untimed call fills the
    process-wide caches (imports), which are not garbage."""
    scenario()
    gc.collect()
    gc.disable()
    try:
        scenario()
        return gc.collect()
    finally:
        gc.enable()


def industrial(mode: str) -> BTRSystem:
    system = BTRSystem(industrial_workload(), full_mesh_topology(5),
                       BTRConfig(f=1, seed=3, trace_mode=mode))
    system.prepare()
    return system


@pytest.mark.parametrize("mode", ["full", "milestones"])
def test_fault_run_rerun_and_sibling_run_free_themselves(mode):
    def scenario():
        system = industrial(mode)
        system.run(20, single_fault(system, "commission", at=250_000).script)
        system.run(10)
        sibling_system(system, 4).run(10)

    assert unreachable_after(scenario) == 0


def test_link_script_run_frees_itself():
    """One degradation fires mid-run; the other is still queued past the
    horizon when the run ends."""
    def scenario():
        system = industrial("milestones")
        link = sorted(system.topology.links)[0]
        period = system.workload.period
        system.run(10, link_script=[(3 * period, link, 0.5),
                                    (20 * period, link, 1.0)])

    assert unreachable_after(scenario) == 0


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_runs_free_themselves(name):
    def scenario():
        system = BASELINES[name](industrial_workload(),
                                 full_mesh_topology(7), f=1, seed=3)
        system.prepare()
        system.run(10, single_fault(system, "crash", at=150_000).script)
        system.run(10)

    assert unreachable_after(scenario) == 0


def search_campaign():
    system, params = prepare_campaign(
        PIPELINE.build_workload(), PIPELINE.build_topology(),
        PIPELINE.config(), FuzzParams(kinds=("commission",), R_us=30_000))
    payload = {"version": 2, "injections": [{
        "time": int(2.5 * system.workload.period),
        "node": system.compromisable_nodes()[0], "kind": "commission"}]}
    return system, params, payload


def test_mc_judge_with_a_delivery_hook_frees_itself():
    def scenario():
        system, params, payload = search_campaign()
        judge(system, script_from_dict(payload), ((0, 50), (3, 120)),
              n_periods=params.n_periods, R_us=params.R_us, k=params.k,
              window=(0, NEVER))

    assert unreachable_after(scenario) == 0


def test_fuzz_evaluation_frees_itself():
    def scenario():
        system, params, payload = search_campaign()
        _evaluate(system, payload, params=params)

    assert unreachable_after(scenario) == 0


def test_compute_bounds_frees_itself():
    """The analyzer judges each victim's silence per plan; no predicate
    it builds for that may reach itself. The strategy keeps the report
    it computed, and the topology its router, without a cycle."""
    def scenario():
        system = BTRSystem(industrial_workload(), full_mesh_topology(6),
                           BTRConfig(f=1, seed=3))
        system.prepare()
        for _ in range(2):  # computed, then the kept report
            compute_bounds(system.strategy, system.topology,
                           system.lane_model, system.config,
                           budget=system.budget)

    assert unreachable_after(scenario) == 0


def test_export_run_frees_itself(tmp_path):
    """The indented report text is written without the standard
    encoder's closures, which refer to each other."""
    system = industrial("milestones")
    result = system.run(10, single_fault(system, "crash", at=150_000).script)
    path = str(tmp_path / "run.json")

    def scenario():
        export_run(result, path)

    assert unreachable_after(scenario) == 0

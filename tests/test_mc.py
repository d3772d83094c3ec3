"""Tests for the bounded model checker (``repro.mc`` / ``repro check``).

The campaign tests all run the smallest config the placement rules
admit — ``pipeline`` on ``fullmesh:4`` with f=1 (f+1 replicas plus a
checker need three distinct non-victim hosts) — with tight bounds so
the whole file stays in CI-smoke territory.
"""

import json
import multiprocessing
import os

import pytest

from repro.core.runtime.config import BTRConfig
from repro.core.runtime.system import BTRSystem
from repro.mc import (
    Cell,
    CheckParams,
    DeliveryPerturbation,
    cell_script,
    explore_cell,
    first_violating_prefix,
    judge,
    replay_counterexample,
    run_campaign,
    state_fingerprint,
)
from repro.mc.choices import validate_schedule
from repro.mc.counterexample import confirm_replay, counterexample_from_dict
from repro.net import full_mesh_topology
from repro.sim.engine import SimulationError, Simulator
from repro.sim.time import NEVER
from repro.workload import pipeline_workload


def small_system(**config_kw):
    config = BTRConfig(f=1, trace_mode="milestones", **config_kw)
    system = BTRSystem(pipeline_workload(), full_mesh_topology(4), config)
    system.prepare()
    return system


def tiny_params(**kw):
    defaults = dict(kinds=("crash",), ticks=1, max_depth=1, branch=2,
                    max_paths=40)
    defaults.update(kw)
    return CheckParams(**defaults)


def run_tiny(params=None, **campaign_kw):
    return run_campaign(pipeline_workload(), full_mesh_topology(4),
                        BTRConfig(f=1), params or tiny_params(),
                        **campaign_kw)


# ------------------------------------------------------------ choice space


def test_cell_validation():
    assert Cell().fault_free
    assert Cell("n1", "crash", 40_000).label() == "n1/crash@40000"
    with pytest.raises(ValueError):
        Cell(victim="n1")  # partial triple
    with pytest.raises(ValueError):
        Cell("n1", "crash", -5)


def test_cell_round_trips_through_dict():
    for cell in (Cell(), Cell("n2", "commission", 44_000)):
        assert Cell.from_dict(cell.to_dict()) == cell


def test_cell_script_is_worker_independent():
    cell = Cell("n1", "commission", 40_000)
    a = cell_script(cell, seed=3)
    b = cell_script(cell, seed=3)
    assert [(i.time, i.node, i.behavior.kind) for i in a] \
        == [(i.time, i.node, i.behavior.kind) for i in b]
    assert cell_script(Cell(), seed=3).faulty_nodes == []


def test_validate_schedule_rejects_malformed():
    validate_schedule(((0, 1000), (3, 2000)))
    with pytest.raises(ValueError):
        validate_schedule(((3, 1000), (3, 2000)))  # not increasing
    with pytest.raises(ValueError):
        validate_schedule(((0, -5),))  # hooks may never accelerate


# ------------------------------------------------------------- engine hook


def test_delivery_hook_delays_chosen_deliveries():
    hook = DeliveryPerturbation(((1, 500),), window=(0, NEVER))
    assert hook("a", "b", 100) == 100   # index 0: untouched
    assert hook("a", "c", 200) == 700   # index 1: +500
    assert hook("b", "c", 300) == 300
    assert hook.observed == [(0, "a", "b", 100), (1, "a", "c", 200),
                             (2, "b", "c", 300)]


def test_engine_rejects_scheduling_into_the_past():
    sim = Simulator(seed=1, fast_heap=True)
    sim.schedule(10, lambda: sim.schedule(5, lambda: None))
    with pytest.raises(SimulationError):
        sim.run_until(20)
    with pytest.raises(SimulationError):
        sim.call_at(2, lambda: None)


def test_system_run_applies_delivery_hook():
    system = small_system()
    base = system.run(n_periods=6)
    hook = DeliveryPerturbation(())
    observed_run = system.run(n_periods=6, delivery_hook=hook)
    assert hook.count > 0  # the hook saw the run's deliveries
    assert state_fingerprint(observed_run) == state_fingerprint(base)


# -------------------------------------------------------------- fingerprint


def test_state_fingerprint_collapses_harmless_perturbation():
    """A small delay that changes no slot verdict, no switch, and no
    final state lands on the parent fingerprint — the dedup soundness
    argument in miniature."""
    system = small_system()
    base = system.run(n_periods=6)
    nudged = system.run(n_periods=6,
                        delivery_hook=DeliveryPerturbation(((0, 50),)))
    assert state_fingerprint(nudged) == state_fingerprint(base)


def test_state_fingerprint_separates_faulty_from_nominal():
    system = small_system()
    base = system.run(n_periods=8)
    faulty = system.run(n_periods=8,
                        adversary=cell_script(
                            Cell("n1", "crash", 40_000), seed=0))
    assert state_fingerprint(faulty) != state_fingerprint(base)


# ------------------------------------------------------- judge and shrink


def test_judge_is_the_run_path_plus_the_invariants():
    system = small_system()
    cell = Cell("n2", "commission", 40_000)
    shape = dict(n_periods=17, R_us=30_000, k=1)
    result, violations, observed = judge(
        system, cell_script(cell, 0), window=(0, NEVER), **shape)
    assert [v.invariant for v in violations] == ["recovery-bound"]
    assert [point[0] for point in observed] == list(range(len(observed)))
    # Recording observes; it never perturbs. Nothing is recorded unasked.
    quiet, again, unrecorded = judge(system, cell_script(cell, 0), **shape)
    assert unrecorded == []
    assert again == violations
    assert state_fingerprint(quiet) == state_fingerprint(result)
    assert not judge(system, cell_script(cell, 0),
                     **{**shape, "R_us": 10 ** 9})[1]


def test_windowed_hook_records_the_window_of_the_unwindowed_points():
    """A window filters what the hook records, never what it counts:
    the points it keeps are exactly the unwindowed ones inside the
    window, indices included, under a perturbing schedule too."""
    system = small_system()
    cell = Cell("n2", "commission", 40_000)
    shape = dict(n_periods=12, R_us=10 ** 9, k=1)
    schedule = ((3, 2000),)
    lo, hi = 30_000, 70_000
    _, _, everything = judge(system, cell_script(cell, 0), schedule,
                             window=(0, NEVER), **shape)
    _, _, windowed = judge(system, cell_script(cell, 0), schedule,
                           window=(lo, hi), **shape)
    assert windowed == [p for p in everything if lo <= p[3] < hi]
    assert 0 < len(windowed) < len(everything)


@pytest.mark.parametrize("seed", [0, 1])
def test_campaign_report_independent_of_hook_window(monkeypatch, seed):
    """The explorer records only its perturbation window (widened by a
    delay quantum); recording every delivery instead changes no byte of
    the report."""
    params = tiny_params(kinds=("crash", "commission"), ticks=2,
                         max_depth=2, max_paths=60, seed=seed)
    windowed, _ = run_tiny(params)

    def unwindowed(*args, window, **kw):
        return judge(*args, window=(0, NEVER), **kw)

    monkeypatch.setattr("repro.mc.explorer.judge", unwindowed)
    everything, _ = run_tiny(params)
    assert json.dumps(windowed, sort_keys=True) \
        == json.dumps(everything, sort_keys=True)
    assert windowed["totals"]["pruned"] > 0


def test_first_violating_prefix_is_the_shortest():
    seen = []

    def violations_of(prefix):
        seen.append(prefix)
        return ["boom"] if len(prefix) >= 2 else []

    assert first_violating_prefix((5, 6, 7, 8), violations_of) \
        == ((5, 6), ["boom"])
    assert seen == [(), (5,), (5, 6)]
    # ``shortest`` skips prefixes that cannot be judged (an empty fault
    # script in the fuzzer's case).
    seen.clear()
    assert first_violating_prefix([1, 2, 3], lambda p: list(p),
                                  shortest=1) == ([1], [1])
    # A known verdict for the whole stands in for its re-run.
    seen.clear()
    assert first_violating_prefix((5, 6), violations_of,
                                  known=["known"]) == ((5, 6), ["known"])
    assert seen == [(), (5,)]


def test_first_violating_prefix_refuses_a_non_reproducing_path():
    with pytest.raises(AssertionError, match="not deterministic"):
        first_violating_prefix((1, 2), lambda prefix: [])


def test_replay_refuses_a_counterexample_that_stops_violating():
    """The minimiser trusts the search's verdict for the whole path, so
    the replay is where a path that no longer violates is caught."""
    params = tiny_params(kinds=("commission",), R_us=30_000)
    report, _ = run_tiny(params)
    artifact = next(c["counterexample"] for c in report["cells"]
                    if c.get("counterexample"))
    system = small_system()
    artifact["replay_confirmed"] = None
    confirm_replay(system, artifact)
    assert artifact["replay_confirmed"] is True
    stale = dict(artifact, R_us=report["budget_us"], replay_confirmed=None)
    with pytest.raises(AssertionError, match="not deterministic"):
        confirm_replay(system, stale)
    assert stale["replay_confirmed"] is None


# ----------------------------------------------------------------- campaign


@pytest.mark.parametrize("search", ["check", "fuzz"])
@pytest.mark.parametrize("bad", [
    {"kinds": ()}, {"kinds": ("gremlins",)}, {"window": (3.0, 2.0)},
    {"window": (-1.0, 2.0)}, {"window": (2.0, float("inf"))},
    {"ticks": 0}, {"k": 0}, {"workers": 0}, {"n_periods": -1},
    {"R_us": 0},
], ids=repr)
def test_search_params_refuse_bad_bounds(search, bad):
    """Both searches' parameters are validated once, by the shared
    record, before anything is prepared."""
    from repro.fuzz import FuzzParams

    params_cls = CheckParams if search == "check" else FuzzParams
    with pytest.raises(ValueError):
        params_cls(**bad)


def test_campaign_certifies_sufficient_R():
    report, _ = run_tiny()
    assert report["certified"]
    assert report["totals"]["violating_paths"] == 0
    assert report["totals"]["truncated_cells"] == 0
    assert report["totals"]["paths"] > 0


def test_campaign_dedup_is_nontrivial():
    params = tiny_params(kinds=("crash", "commission"), ticks=2,
                         max_depth=2, max_paths=60)
    report, _ = run_tiny(params)
    totals = report["totals"]
    assert totals["dedup_hits"] > 0
    assert totals["distinct_states"] < totals["paths"]


def test_campaign_byte_identical_across_worker_counts():
    params = tiny_params(kinds=("crash", "commission"), ticks=2,
                         max_depth=2, max_paths=60)
    serial, sstats = run_tiny(params)
    # The fork ceiling is a host-side figure: recorded in the stats,
    # never in the byte-compared report, whoever explored the cells.
    assert 0.0 < sstats.shared_prefix_share < 1.0
    assert "shared_prefix" not in json.dumps(serial)
    try:
        parallel, pstats = run_tiny(
            CheckParams(**{**params.__dict__, "workers": 4}))
    except (OSError, ValueError, ImportError):
        pytest.skip("process pools unavailable in this environment")
    if pstats.pool_fallback:
        pytest.skip("worker pool could not be created")
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(parallel, sort_keys=True)
    assert pstats.shared_prefix_share == sstats.shared_prefix_share


def _explore_cell_dying_in_workers(system, cell, params):
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return explore_cell(system, cell, params)


def test_campaign_survives_a_dying_worker(monkeypatch):
    """A worker lost mid-campaign is the documented in-process fallback,
    not a traceback: same report, ``pool_fallback`` set, and the
    first-violation rank counts cells that were really explored."""
    params = tiny_params(kinds=("commission",), ticks=2, R_us=30_000)
    serial, sstats = run_tiny(params)
    monkeypatch.setattr("repro.mc.campaign.explore_cell",
                        _explore_cell_dying_in_workers)
    broken, bstats = run_tiny(
        CheckParams(**{**params.__dict__, "workers": 2}))
    assert bstats.pool_fallback and not sstats.pool_fallback
    assert json.dumps(broken, sort_keys=True) \
        == json.dumps(serial, sort_keys=True)
    assert bstats.cells_to_first_violation \
        == sstats.cells_to_first_violation > 0


def _campaigns():
    from repro.fuzz import FuzzParams, run_fuzz_campaign
    return [
        pytest.param(run_campaign, tiny_params(), id="check"),
        pytest.param(run_fuzz_campaign,
                     FuzzParams(kinds=("crash",), ticks=1, generations=1,
                                batch=2, elite=2), id="fuzz"),
    ]


@pytest.mark.parametrize("run, params", _campaigns())
def test_campaign_plans_the_same_every_time(monkeypatch, run, params):
    """A campaign's work does not depend on what the process ran before:
    every run prepares once and computes every plan."""
    plans = []
    prepare = BTRSystem.prepare

    def counting(self):
        budget = prepare(self)
        plans.append(self.plan_stats.plans_computed)
        return budget

    monkeypatch.setattr(BTRSystem, "prepare", counting)
    for _ in range(2):
        run(pipeline_workload(), full_mesh_topology(4), BTRConfig(f=1),
            params)
    assert len(plans) == 2 and plans[0] == plans[1] > 0


def test_campaign_underprovisioned_R_yields_confirmed_counterexample():
    params = tiny_params(kinds=("commission",), R_us=30_000)
    report, _ = run_tiny(params)
    assert not report["certified"]
    artifacts = [c["counterexample"] for c in report["cells"]
                 if c.get("counterexample")]
    assert artifacts, "under-provisioned R must produce a counterexample"
    for artifact in artifacts:
        assert artifact["replay_confirmed"]
        assert artifact["violations"]
        # Minimised: the fault alone breaks a 30ms bound here, so the
        # shortest-prefix schedule is empty.
        assert artifact["deliveries"] == []
        cell, deliveries = counterexample_from_dict(artifact)
        assert not cell.fault_free
        assert deliveries == ()


def test_counterexample_replays_through_normal_run_path():
    params = tiny_params(kinds=("commission",), R_us=30_000)
    report, _ = run_tiny(params)
    artifact = next(c["counterexample"] for c in report["cells"]
                    if c.get("counterexample"))
    # Round-trip through JSON: the artifact is a portable file format.
    artifact = json.loads(json.dumps(artifact))
    system = small_system()
    violations, result = replay_counterexample(system, artifact)
    assert violations
    assert violations[0].invariant == "recovery-bound"
    assert result.fault_times()  # the fault really was injected


def test_counterexample_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        counterexample_from_dict([])
    with pytest.raises(ValueError):
        counterexample_from_dict({"version": 1})
    good = {"version": 99, "cell": {}, "fault_script": {},
            "deliveries": [], "n_periods": 1, "R_us": 1, "k": 1,
            "seed": 0, "violations": []}
    with pytest.raises(ValueError):
        counterexample_from_dict(good)  # wrong version


def test_pruning_changes_no_verdicts():
    """Sleep-set pruning is a search optimisation: the violation set
    must be identical with and without it."""
    base = dict(kinds=("commission",), ticks=1, max_depth=2, branch=2,
                max_paths=80, R_us=30_000)

    def verdicts(report):
        return [(c["cell"], v["violations"])
                for c in report["cells"] for v in c["violating"]]

    pruned, _ = run_tiny(CheckParams(**base, prune=True))
    unpruned, _ = run_tiny(CheckParams(**base, prune=False))
    assert verdicts(pruned) == verdicts(unpruned)
    assert pruned["totals"]["paths"] <= unpruned["totals"]["paths"]


def test_truncated_campaign_is_not_certified():
    params = tiny_params(kinds=("crash", "commission"), ticks=2,
                         max_depth=3, branch=3, max_paths=2)
    report, _ = run_tiny(params)
    assert report["totals"]["truncated_cells"] > 0
    assert not report["certified"]

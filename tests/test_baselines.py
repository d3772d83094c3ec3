"""Tests for the baseline systems, and the comparative behaviour matrix
that the paper's argument rests on."""

import pytest

from repro.baselines import (
    BASELINES,
    BFTSystem,
    CrashRestartSystem,
    SelfStabilizingSystem,
    UnreplicatedSystem,
    ZZSystem,
    bft_augment,
    majority,
)
from repro import BTRConfig, BTRSystem
from repro.core.planner.plan import Plan, derive_routes
from repro.faults import single_fault
from repro.net import full_mesh_topology, topology_from_spec
from repro.sim.trace import MessageSent
from repro.verify import check_placement, check_routes, check_schedule
from repro.workload import (
    compute_output,
    industrial_workload,
    pipeline_workload,
    sensor_reading,
)
from tests import golden

N_PERIODS = 24
FAULT_AT = 220_000
FAULT_PERIOD = 4  # 220 ms into 50 ms periods


def oracle_value(workload, flow_base, k):
    values = {}
    for source in workload.sources:
        values[source] = sensor_reading(source, k)
    for task in workload.topological_order():
        inputs = [values[f.src] for f in workload.inputs_of(task)]
        values[task] = compute_output(task, k, inputs)
    return values[workload.flow(flow_base).src]


def run_baseline(cls, kind=None, n_nodes=8, n_periods=N_PERIODS, **kwargs):
    workload = industrial_workload()
    topology = full_mesh_topology(n_nodes, bandwidth=1e8)
    system = cls(workload, topology, f=1, seed=3, **kwargs)
    system.prepare()
    adversary = (single_fault(system, kind, at=FAULT_AT).script
                 if kind else None)
    return system, system.run(n_periods, adversary)


def wrong_and_missing(result, n_periods=N_PERIODS):
    workload = result.workload
    wrong, got = set(), set()
    for o in result.outputs():
        got.add((o.flow, o.period_index))
        if o.value != oracle_value(workload, o.flow, o.period_index):
            wrong.add(o.period_index)
    expected = {(f.name, k) for f in workload.sink_flows()
                for k in range(n_periods)}
    missing = {k for (_, k) in expected - got}
    return sorted(wrong), sorted(missing)


# ----------------------------------------------------------------- helpers


def test_majority_vote_deterministic():
    assert majority([1, 1, 2]) == 1
    assert majority([5]) == 5
    assert majority([2, 1]) == 1  # tie -> smaller value


def test_bft_augment_shape():
    wl = pipeline_workload(n_stages=2)
    aug = bft_augment(wl, replicas=4)
    assert len(aug.tasks) == 8
    # Internal edge: 16 replica-to-replica copies.
    internal = [f for f in aug.flows if f.name.startswith("pipeline.f0@")]
    assert len(internal) == 16
    # Sink edge: 4 voter copies; source edge: 4 copies.
    assert len([f for f in aug.flows
                if f.name.startswith("pipeline.out@")]) == 4
    assert len([f for f in aug.flows
                if f.name.startswith("pipeline.in@")]) == 4
    aug.validate()


@pytest.mark.parametrize("spec", golden.BASELINE_TOPOLOGIES)
@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_deploys_a_plan_the_verifier_passes(name, spec):
    """Baselines are checked like BTR: every deployment of the golden
    baseline grid is a planner :class:`Plan` for the empty fault
    pattern, its routes are the planner's derivation, and the route,
    schedule and placement rules find nothing in it."""
    topology = topology_from_spec(spec, 1e8)
    system = BASELINES[name](industrial_workload(), topology, f=1, seed=42)
    system.prepare()
    plan = system.plan
    assert type(plan) is Plan
    assert plan.pattern == frozenset()
    assert plan.routes == derive_routes(plan.schedule, plan.augmented,
                                        topology, plan.assignment)
    assert check_routes(plan, topology) == []
    assert check_schedule(plan) == []
    assert check_placement(plan, topology) == []


def test_baseline_requires_prepare():
    wl = industrial_workload()
    system = UnreplicatedSystem(wl, full_mesh_topology(6, bandwidth=1e8))
    with pytest.raises(ValueError, match="prepare"):
        system.run(1)


@pytest.fixture(scope="module", params=["btr", *BASELINES])
def prepared(request):
    workload = industrial_workload()
    topology = full_mesh_topology(5, bandwidth=1e8)
    if request.param == "btr":
        system = BTRSystem(workload, topology, BTRConfig(f=1, seed=3))
    else:
        system = BASELINES[request.param](workload, topology, f=1, seed=3)
    system.prepare()
    return system


@pytest.mark.parametrize("n_periods", [0, -2, 1.5, True])
def test_run_refuses_a_period_count_that_is_not_a_positive_int(
        prepared, n_periods):
    """BTR and every baseline share one run loop, and it refuses the
    count before any event is scheduled."""
    with pytest.raises(ValueError, match=f"got {n_periods!r}$"):
        prepared.run(n_periods)
    assert prepared.sim is None


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_rerun_of_one_baseline_repeats_a_fresh_run(name):
    """A crash run leaves nothing behind: a fault-free rerun on the same
    instance equals a fresh instance's fault-free run."""
    system, _ = run_baseline(BASELINES[name], kind="crash")
    rerun = golden.digest(system, system.run(N_PERIODS))
    fresh, result = run_baseline(BASELINES[name])
    assert rerun == golden.digest(fresh, result)


@pytest.mark.parametrize("cls,kwargs", [
    (UnreplicatedSystem, {}),
    (BFTSystem, {}),
    (ZZSystem, {}),
    (SelfStabilizingSystem, {"reset_every": 8}),
    (CrashRestartSystem, {}),
])
def test_fault_free_baselines_are_correct(cls, kwargs):
    _, result = run_baseline(cls, kind=None, **kwargs)
    wrong, missing = wrong_and_missing(result)
    assert wrong == [] and missing == []
    for o in result.outputs():
        assert o.time <= o.deadline


# ------------------------------------------------------ comparative matrix


def test_unreplicated_commission_corrupts_forever():
    _, result = run_baseline(UnreplicatedSystem, kind="commission")
    wrong, _ = wrong_and_missing(result)
    assert wrong and wrong[-1] == N_PERIODS - 1  # never recovers


def test_unreplicated_crash_silences_forever():
    _, result = run_baseline(UnreplicatedSystem, kind="crash")
    _, missing = wrong_and_missing(result)
    assert missing and missing[-1] == N_PERIODS - 1


def test_bft_masks_commission_and_crash():
    for kind in ("commission", "crash", "omission", "equivocation"):
        _, result = run_baseline(BFTSystem, kind=kind)
        wrong, missing = wrong_and_missing(result)
        assert wrong == [] and missing == [], f"BFT failed to mask {kind}"


def test_zz_masks_execution_faults():
    for kind in ("commission", "crash"):
        _, result = run_baseline(ZZSystem, kind=kind)
        wrong, missing = wrong_and_missing(result)
        assert wrong == [] and missing == [], f"ZZ failed to mask {kind}"


def test_selfstab_crash_recovers_only_at_reset():
    _, result = run_baseline(SelfStabilizingSystem, kind="crash",
                             reset_every=8)
    _, missing = wrong_and_missing(result)
    # Fault in period 4; reset at period 8 repairs it: outage 4..7 region.
    assert missing
    assert max(missing) < 8
    assert min(missing) >= FAULT_PERIOD


def test_selfstab_recovery_scales_with_reset_interval():
    _, fast = run_baseline(SelfStabilizingSystem, kind="crash",
                           reset_every=6)
    _, slow = run_baseline(SelfStabilizingSystem, kind="crash",
                           reset_every=16)
    _, fast_missing = wrong_and_missing(fast)
    _, slow_missing = wrong_and_missing(slow)
    assert len(slow_missing) > len(fast_missing)  # no bound: pick your pain


def test_selfstab_never_recovers_from_byzantine():
    _, result = run_baseline(SelfStabilizingSystem, kind="commission",
                             reset_every=6)
    wrong, _ = wrong_and_missing(result)
    assert wrong and wrong[-1] == N_PERIODS - 1


def test_crash_restart_reboots_after_watchdog():
    _, result = run_baseline(CrashRestartSystem, kind="crash",
                             watchdog_periods=2, reboot_periods=2)
    _, missing = wrong_and_missing(result)
    assert missing
    # Outage = watchdog (2) + reboot (2) periods, starting at the fault.
    assert min(missing) >= FAULT_PERIOD
    assert max(missing) <= FAULT_PERIOD + 5
    # Clean afterwards.
    assert not set(missing) & set(range(FAULT_PERIOD + 6, N_PERIODS))


def test_crash_restart_blind_to_commission():
    _, result = run_baseline(CrashRestartSystem, kind="commission")
    wrong, _ = wrong_and_missing(result)
    assert wrong and wrong[-1] == N_PERIODS - 1


# ------------------------------------------------------------ cost shapes


def test_bft_sends_more_traffic_than_zz_than_unreplicated():
    _, unrep = run_baseline(UnreplicatedSystem)
    _, zz = run_baseline(ZZSystem)
    _, bft = run_baseline(BFTSystem)
    sent = [r.trace.count(MessageSent) for r in (unrep, zz, bft)]
    assert sent[0] < sent[1] < sent[2]


def test_bft_outputs_arrive_later_than_unreplicated():
    _, unrep = run_baseline(UnreplicatedSystem)
    _, bft = run_baseline(BFTSystem)

    def mean_latency(result):
        lats = [o.time - o.period_index * result.workload.period
                for o in result.outputs()]
        return sum(lats) / len(lats)

    assert mean_latency(bft) > mean_latency(unrep)


@pytest.mark.parametrize("key", golden.BASELINE_KEYS)
def test_baseline_trace_equals_committed_digest(key):
    """Every baseline cell — multi-hop forwarding included — records the
    trace its own transmit path recorded before the baselines moved onto
    the shared hop runtime (``tests/golden/baseline_digests.json``)."""
    assert golden.run_baseline_cell(key) == golden.expected_baseline(key)


def test_baseline_config_validation():
    wl = industrial_workload()
    topo = full_mesh_topology(6, bandwidth=1e8)
    with pytest.raises(ValueError):
        SelfStabilizingSystem(wl, topo, reset_every=0)
    with pytest.raises(ValueError):
        CrashRestartSystem(wl, topo, watchdog_periods=0)

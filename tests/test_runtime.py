"""Integration tests: the full BTR runtime on the simulator.

These tests run complete deployments end-to-end and assert the system-level
properties the paper promises: correct, timely outputs when fault-free;
bounded recovery after each fault type; convergence of fault sets; immunity
to evidence flooding.
"""

import pytest

from repro import BTRConfig, BTRSystem
from repro.core.runtime.system import NotPreparedError
from repro.faults import (
    EvidenceFloodFault,
    FaultScript,
    Injection,
    paced,
    single_fault,
)
from repro.net import full_mesh_topology
from repro.sim import (
    EvidenceGenerated,
    EvidenceRejected,
    FaultInjected,
    ModeSwitchCompleted,
    OutputProduced,
)
from repro.workload import (
    compute_output,
    industrial_workload,
    sensor_reading,
)

PERIOD_COUNT = 24
FAULT_AT = 220_000  # mid period 4 of the 50 ms industrial workload


def oracle_value(workload, flow_base, k):
    """Reference output value of a sink flow in period k."""
    values = {}
    for source in workload.sources:
        values[source] = sensor_reading(source, k)
    for task in workload.topological_order():
        inputs = [values[f.src] for f in workload.inputs_of(task)]
        values[task] = compute_output(task, k, inputs)
    return values[workload.flow(flow_base).src]


def run_system(kind=None, f=1, seed=42, n_nodes=7, n_periods=PERIOD_COUNT,
               adversary=None, config=None):
    workload = industrial_workload()
    topology = full_mesh_topology(n_nodes, bandwidth=1e8)
    system = BTRSystem(workload, topology,
                       config or BTRConfig(f=f, seed=seed))
    system.prepare()
    if adversary is None and kind is not None:
        adversary = single_fault(system, kind, at=FAULT_AT).script
    return system, system.run(n_periods=n_periods, adversary=adversary)


def classify_periods(result, n_periods=PERIOD_COUNT):
    """(wrong_periods, missing_periods) against the oracle."""
    workload = result.workload
    wrong = set()
    got = set()
    for o in result.outputs():
        got.add((o.flow, o.period_index))
        if o.value != oracle_value(workload, o.flow, o.period_index):
            wrong.add(o.period_index)
    expected = {(f.name, k) for f in workload.sink_flows()
                for k in range(n_periods)}
    missing = {k for (_, k) in expected - got}
    return sorted(wrong), sorted(missing)


@pytest.fixture(scope="module")
def fault_free():
    return run_system(kind=None)


def test_run_requires_prepare():
    workload = industrial_workload()
    system = BTRSystem(workload, full_mesh_topology(6, bandwidth=1e8))
    with pytest.raises(NotPreparedError):
        system.run(n_periods=1)


def test_fault_free_outputs_all_correct_and_timely(fault_free):
    _, result = fault_free
    wrong, missing = classify_periods(result)
    assert wrong == [] and missing == []
    for o in result.outputs():
        assert o.time <= o.deadline, (
            f"{o.flow} period {o.period_index} late: {o.time} > {o.deadline}"
        )


def test_fault_free_generates_no_evidence(fault_free):
    _, result = fault_free
    assert result.trace.of_kind(EvidenceGenerated) == []
    assert result.mode_switches() == []
    assert all(fs == frozenset() for fs in result.final_fault_sets.values())


def test_prepare_reports_budget(fault_free):
    system, result = fault_free
    budget = result.budget
    assert budget.total_us > 0
    assert budget.detection_us > 0
    assert budget.distribution_us > 0


def test_requested_r_too_tight_raises():
    workload = industrial_workload()
    system = BTRSystem(workload, full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, R_us=1_000))
    with pytest.raises(ValueError, match="not achievable"):
        system.prepare()


@pytest.mark.parametrize("kind", [
    "commission", "crash", "omission", "timing", "equivocation",
])
def test_single_fault_recovery_is_bounded(kind):
    system, result = run_system(kind=kind)
    wrong, missing = classify_periods(result)
    disrupted = set(wrong) | set(missing)
    period = result.workload.period
    fault_period = FAULT_AT // period
    # No disruption before the fault.
    assert all(k >= fault_period for k in disrupted)
    # Recovery within the computed budget.
    budget_periods = -(-result.budget.total_us // period)
    assert all(k <= fault_period + budget_periods for k in disrupted), (
        f"{kind}: disruption {sorted(disrupted)} exceeds budget "
        f"{budget_periods} periods after fault in period {fault_period}"
    )
    # Sustained recovery: the last quarter of the run is clean.
    assert not disrupted & set(range(PERIOD_COUNT - 6, PERIOD_COUNT))


@pytest.mark.parametrize("kind", [
    "commission", "crash", "omission", "equivocation",
])
def test_correct_nodes_converge_on_the_faulty_node(kind):
    system, result = run_system(kind=kind)
    faulty = set(result.fault_times())
    assert len(faulty) == 1
    correct_sets = [
        fs for node, fs in result.final_fault_sets.items()
        if node not in faulty
    ]
    assert all(fs == frozenset(faulty) for fs in correct_sets)
    # And no correct node is ever implicated.
    for fs in correct_sets:
        assert not fs - faulty


def test_crash_faults_recover_via_attribution():
    system, result = run_system(kind="crash")
    kinds = {e.fault_kind for e in result.trace.of_kind(EvidenceGenerated)}
    assert "attribution" in kinds


def test_commission_faults_produce_transferable_conviction():
    system, result = run_system(kind="commission")
    kinds = {e.fault_kind for e in result.trace.of_kind(EvidenceGenerated)}
    assert kinds & {"commission", "forward_mismatch"}


def test_forged_evidence_flood_is_rejected_and_endorser_attributed():
    """Forged junk is cheap-rejected, and §4.3's endorsement rule makes
    its *distributor* attributable: the flooder signed the endorsements
    on its own junk, collects the slander charges, and is excluded."""
    system, result = run_system(kind="evidence_flood")
    rejected = result.trace.of_kind(EvidenceRejected)
    assert len(rejected) > 50
    assert all(r.reason == "bad_signature" for r in rejected)
    flooder = next(iter(result.fault_times()))
    correct_sets = [fs for n, fs in result.final_fault_sets.items()
                    if n != flooder]
    assert all(fs == frozenset({flooder}) for fs in correct_sets)
    # Outputs: at most the usual bounded switch blip, fully excused.
    verdict = btr_verdict_for(result, system)
    assert verdict.holds


def btr_verdict_for(result, system):
    from repro.analysis import btr_verdict
    return btr_verdict(result, R_us=system.budget.total_us)


def test_properly_signed_slander_implicates_the_signer():
    workload = industrial_workload()
    system = BTRSystem(workload, full_mesh_topology(7, bandwidth=1e8),
                       BTRConfig(f=1, seed=5))
    system.prepare()
    victim = system.compromisable_nodes()[0]
    script = FaultScript([Injection(
        FAULT_AT, victim,
        EvidenceFloodFault(records_per_period=5, proper_signatures=True),
    )])
    result = system.run(n_periods=PERIOD_COUNT, adversary=script)
    correct_sets = [fs for n, fs in result.final_fault_sets.items()
                    if n != victim]
    assert all(fs == frozenset({victim}) for fs in correct_sets)
    wrong, missing = classify_periods(result)
    # The slanderer gets excluded; outputs never degrade beyond the budget.
    assert wrong == []


def test_pacing_adversary_with_f2_is_contained():
    workload = industrial_workload()
    system = BTRSystem(workload, full_mesh_topology(9, bandwidth=1e8),
                       BTRConfig(f=2, seed=1))
    system.prepare()
    attack = paced(system, 2, start=200_000, interval=300_000)
    result = system.run(n_periods=30, adversary=attack.script)
    wrong, missing = classify_periods(result, n_periods=30)
    disrupted = set(wrong) | set(missing)
    # Two separate disruption windows, both bounded; clean at the end.
    assert not disrupted & set(range(24, 30))
    faulty = set(result.fault_times())
    assert len(faulty) == 2
    correct_sets = [fs for n, fs in result.final_fault_sets.items()
                    if n not in faulty]
    assert all(fs == frozenset(faulty) for fs in correct_sets)


def test_runs_are_deterministic():
    def outputs_of_run():
        _, result = run_system(kind="commission", seed=7)
        return [(o.time, o.flow, o.period_index, o.value)
                for o in result.outputs()]

    assert outputs_of_run() == outputs_of_run()


def test_different_seeds_still_recover():
    for seed in (1, 2, 3):
        _, result = run_system(kind="commission", seed=seed)
        wrong, missing = classify_periods(result)
        disrupted = set(wrong) | set(missing)
        assert not disrupted & set(range(PERIOD_COUNT - 6, PERIOD_COUNT))


def test_mode_switches_are_lockstep():
    system, result = run_system(kind="commission")
    faulty = set(result.fault_times())
    switch_times = {}
    for e in result.mode_switches():
        if e.node in faulty:
            continue
        switch_times.setdefault(e.mode, set()).add(e.time)
    # Every correct node adopts each mode at the same boundary.
    for mode, times in switch_times.items():
        assert len(times) == 1, f"mode {mode} adopted at {sorted(times)}"
    # ...and from then on executes the adopted plan's compiled program,
    # the one that plan holds for the node.
    assert switch_times
    for node, agent in system.agents.items():
        if node in faulty:
            continue
        assert agent.plan is system.strategy.plan_for(faulty)
        assert agent.plan is not system.strategy.nominal
        assert agent.program is agent.plan.programs[node]


def test_run_result_summary_mentions_faults():
    system, result = run_system(kind="crash")
    text = result.summary()
    assert "faults" in text and "outputs" in text

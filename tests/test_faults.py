"""Tests for fault behaviours, patterns, and adversary scripting."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    CommissionFault,
    CrashFault,
    EquivocationFault,
    EvidenceFloodFault,
    FaultBehavior,
    FaultScript,
    Injection,
    OmissionFault,
    TimingFault,
    all_patterns_up_to,
    make_behavior,
    mode_id,
    paced,
    pattern,
    random_faults,
    single_fault,
    strategy_size,
)
from repro.sim import DeterministicRandom


# ---------------------------------------------------------------- behaviors


def test_correct_behavior_changes_nothing():
    b = FaultBehavior()
    assert not b.drops_message("f", 0, "n1")
    assert b.corrupt_value("t", 0, 42) == 42
    assert b.delay_send("f", 0) == 0
    assert not b.suppresses_detection()
    assert not b.fabricates_evidence()
    assert not b.is_crash()


def test_crash_marks_node():
    class AgentStub:
        class node:
            crashed = False

    b = CrashFault()
    agent = AgentStub()
    b.on_activate(agent)
    assert agent.node.crashed
    assert b.is_crash()


def test_omission_total_silence():
    b = OmissionFault(drop_probability=1.0)
    assert b.drops_message("any", 0, "n1")


def test_omission_targets_specific_flows():
    b = OmissionFault(target_flows=frozenset({"f1"}))
    assert b.drops_message("f1", 0, "n1")
    assert not b.drops_message("f2", 0, "n1")


def test_omission_probabilistic_with_rng():
    rng = DeterministicRandom(1)
    b = OmissionFault(drop_probability=0.5, rng=rng)
    results = [b.drops_message("f", i, "n1") for i in range(200)]
    assert 40 < sum(results) < 160  # roughly half


def test_commission_corrupts_value():
    b = CommissionFault()
    assert b.corrupt_value("t", 0, 42) != 42
    # Deterministic: same corruption each time (mask-based).
    assert b.corrupt_value("t", 0, 42) == b.corrupt_value("t", 0, 42)


def test_commission_targets_specific_tasks():
    b = CommissionFault(target_tasks=frozenset({"t1"}))
    assert b.corrupt_value("t1", 0, 42) != 42
    assert b.corrupt_value("t2", 0, 42) == 42


def test_timing_delays_without_corrupting():
    b = TimingFault(delay_us=700)
    assert b.delay_send("f", 0) == 700
    assert b.corrupt_value("t", 0, 42) == 42


def test_equivocation_splits_receivers():
    b = EquivocationFault(lied_to=frozenset({"n2"}))
    truth = b.corrupt_value("t", 0, 42, receiver="n1")
    lie = b.corrupt_value("t", 0, 42, receiver="n2")
    assert truth == 42 and lie != 42


def test_evidence_flood_flag():
    assert EvidenceFloodFault().fabricates_evidence()


def test_make_behavior_known_kinds():
    for kind in ("crash", "omission", "commission", "timing",
                 "equivocation", "evidence_flood"):
        assert make_behavior(kind).kind == kind
    with pytest.raises(ValueError):
        make_behavior("gremlins")


# ----------------------------------------------------------------- patterns


def test_mode_id_is_canonical():
    assert mode_id(pattern()) == "nominal"
    assert mode_id(pattern(["b", "a"])) == "faulty:a+b"
    assert mode_id(frozenset({"a", "b"})) == mode_id(frozenset({"b", "a"}))


def test_all_patterns_up_to_counts():
    nodes = ["a", "b", "c", "d"]
    patterns = all_patterns_up_to(nodes, 2)
    assert len(patterns) == 1 + 4 + 6
    assert patterns[0] == frozenset()
    # Parents precede children.
    for i, p in enumerate(patterns):
        for node in p:
            assert patterns.index(p - {node}) < i


def test_strategy_size_matches_enumeration():
    nodes = [f"n{i}" for i in range(7)]
    for f in range(4):
        assert strategy_size(7, f) == len(all_patterns_up_to(nodes, f))


def test_a_budget_beyond_the_nodes_enumerates_every_subset_once():
    nodes = [f"n{i}" for i in range(4)]
    assert strategy_size(4, 10**30) == len(
        all_patterns_up_to(nodes, 10**30)) == 2 ** 4


@given(st.sets(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=3))
def test_property_mode_id_injective_on_small_sets(nodes):
    p = frozenset(nodes)
    # mode_id must round-trip: distinct patterns -> distinct ids.
    reconstructed = (frozenset() if mode_id(p) == "nominal"
                     else frozenset(mode_id(p)[len("faulty:"):].split("+")))
    assert reconstructed == p


# ---------------------------------------------------------------- adversary


def test_fault_script_sorts_and_rejects_double_injection():
    script = FaultScript([
        Injection(200, "b", CrashFault()),
        Injection(100, "a", CrashFault()),
    ])
    assert [i.node for i in script] == ["a", "b"]
    with pytest.raises(ValueError):
        FaultScript([
            Injection(1, "a", CrashFault()),
            Injection(2, "a", CrashFault()),
        ])


def candidates(*nodes):
    """What the builders read of a prepared system: its sorted
    compromisable nodes."""
    return SimpleNamespace(compromisable_nodes=lambda: sorted(nodes))


def test_single_fault_adversary_defaults_to_first_candidate():
    script = single_fault(candidates("n2", "n1"), "crash", at=1000).script
    assert script.faulty_nodes == ["n1"]
    assert script.injections[0].time == 1000


def test_single_fault_adversary_validates_choice():
    with pytest.raises(ValueError):
        single_fault(candidates("n1"), "commission", at=0, node="ghost")


def test_pacing_adversary_spacing():
    script = paced(candidates("n1", "n2", "n3", "n4"), 3,
                   start=1000, interval=5000).script
    times = [i.time for i in script]
    assert times == [1000, 6000, 11000]
    assert len(set(script.faulty_nodes)) == 3


def test_pacing_adversary_needs_enough_victims():
    with pytest.raises(ValueError):
        paced(candidates("n1", "n2"), 5, start=0, interval=1)


def test_random_adversary_is_reproducible():
    system = candidates("n1", "n2", "n3", "n4", "n5")
    s1 = random_faults(system, 3, DeterministicRandom(9), horizon=100_000)
    s2 = random_faults(system, 3, DeterministicRandom(9), horizon=100_000)
    assert [(i.time, i.node, i.behavior.kind) for i in s1.script] == [
        (i.time, i.node, i.behavior.kind) for i in s2.script]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 4))
def test_property_random_adversary_respects_k_and_horizon(seed, k):
    script = random_faults(candidates(*(f"n{i}" for i in range(6))), k,
                           DeterministicRandom(seed), horizon=50_000).script
    assert len(script) == k
    assert len(set(script.faulty_nodes)) == k
    assert all(0 <= i.time <= 50_000 for i in script)


# -------------------------------------------- adversary determinism


def _script_payload_task(args):
    """Top-level so ProcessPoolExecutor can pickle it."""
    adversary_kind, seed = args
    from repro.faults import script_to_dict
    from repro.sim import DeterministicRandom

    system = candidates(*(f"n{i}" for i in range(6)))
    if adversary_kind == "random":
        built = random_faults(system, 3, DeterministicRandom(seed),
                              horizon=50_000)
    else:
        built = paced(system, 3, start=10_000, interval=20_000)
    return script_to_dict(built.script)


@pytest.mark.parametrize("adversary_kind", ["random", "pacing"])
def test_adversary_identical_seeds_across_processes(adversary_kind):
    """Identical seeds yield identical scripts no matter which process
    builds them — the property the model checker's worker fan-out rests
    on."""
    from concurrent.futures import ProcessPoolExecutor

    local = [_script_payload_task((adversary_kind, seed))
             for seed in (7, 7, 11)]
    assert local[0] == local[1]
    if adversary_kind == "random":
        # Pacing's victims/times are seed-independent by design; only
        # the random adversary's structure varies with the seed.
        assert local[0] != local[2]
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_script_payload_task,
                                   [(adversary_kind, 7),
                                    (adversary_kind, 7),
                                    (adversary_kind, 11)]))
    except (OSError, ValueError, ImportError):
        pytest.skip("process pools unavailable in this environment")
    assert remote == local


@pytest.mark.parametrize("make", [
    lambda system: random_faults(system, 3, DeterministicRandom(9),
                                 horizon=50_000),
    lambda system: paced(system, 2, start=10_000, interval=20_000),
    lambda system: single_fault(system, "crash", at=30_000),
])
def test_fault_script_round_trips_through_serialisation(make):
    from repro.faults import script_from_dict, script_to_dict

    script = make(candidates(*(f"n{i}" for i in range(6)))).script
    payload = script_to_dict(script)
    rebuilt = script_from_dict(payload, seed=9)
    assert [(i.time, i.node, i.behavior.kind) for i in rebuilt] \
        == [(i.time, i.node, i.behavior.kind) for i in script]
    # Serialisation is stable: a round-tripped script re-serialises to
    # the same payload.
    assert script_to_dict(rebuilt) == payload


def test_script_from_dict_rejects_bad_payloads():
    from repro.faults import script_from_dict, script_to_dict

    script = single_fault(candidates("n0"), "crash", at=5_000).script
    payload = script_to_dict(script)
    with pytest.raises(ValueError):
        script_from_dict({**payload, "version": 99})
    with pytest.raises(ValueError):
        script_from_dict({"injections": payload["injections"]})


@pytest.mark.parametrize("method", ["spawn", "fork"])
@pytest.mark.parametrize("adversary_kind", ["random", "pacing"])
def test_adversary_determinism_under_spawn_and_fork(adversary_kind,
                                                    method):
    """Same seed → identical ``script_to_dict`` payload whichever start
    method spawned the worker (spawn re-imports, fork inherits — both
    must agree with the parent)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable")
    local = _script_payload_task((adversary_kind, 7))
    try:
        with ProcessPoolExecutor(
                max_workers=2,
                mp_context=multiprocessing.get_context(method)) as pool:
            remote = list(pool.map(_script_payload_task,
                                   [(adversary_kind, 7)] * 2))
    except (OSError, ValueError, ImportError):
        pytest.skip("process pools unavailable in this environment")
    assert remote == [local, local]


def test_v2_payload_persists_params_and_rng_seed():
    """The serialised payload carries behaviour parameters and the RNG
    seed, so a rebuilt behaviour is the original, not just its kind."""
    from repro.faults import script_from_dict, script_to_dict

    script = FaultScript([
        Injection(10_000, "n1", OmissionFault(
            drop_probability=0.5, target_flows=frozenset({"flow_b"}),
            rng=DeterministicRandom(1234))),
        Injection(20_000, "n2", TimingFault(delay_us=7_500,
                                            fake_timestamp=True)),
    ])
    payload = script_to_dict(script)
    assert payload["version"] == 2
    omission, timing = payload["injections"]
    assert omission["params"] == {"drop_probability": 0.5,
                                  "target_flows": ["flow_b"]}
    assert omission["rng_seed"] == 1234
    assert timing["params"] == {"delay_us": 7_500,
                                "fake_timestamp": True}

    rebuilt = script_from_dict(payload)
    assert rebuilt.injections[0].behavior.drop_probability == 0.5
    assert rebuilt.injections[0].behavior.target_flows \
        == frozenset({"flow_b"})
    assert rebuilt.injections[0].behavior.rng.seed_value == 1234
    assert rebuilt.injections[1].behavior.delay_us == 7_500
    assert script_to_dict(rebuilt) == payload


def test_script_round_trip_replays_byte_identically():
    """A serialised + rebuilt script replays to a byte-identical trace —
    the fidelity contract the fuzzer's corpus rests on (a v1 payload
    only promised structural identity)."""
    from repro import BTRConfig, BTRSystem
    from repro.faults import script_from_dict, script_to_dict
    from repro.net import full_mesh_topology
    from repro.sim.trace import trace_fingerprint
    from repro.workload import pipeline_workload

    system = BTRSystem(pipeline_workload(),
                       full_mesh_topology(4, bandwidth=1e8),
                       BTRConfig(f=1))
    system.prepare()
    script = random_faults(system, 1, DeterministicRandom(3),
                           horizon=120_000, kinds=("omission",),
                           min_time=40_000).script
    reference = system.run(n_periods=10, adversary=script)
    rebuilt = script_from_dict(script_to_dict(script))
    replayed = system.run(n_periods=10, adversary=rebuilt)
    assert trace_fingerprint(replayed.trace) \
        == trace_fingerprint(reference.trace)

"""Tests for the coverage-guided fuzzer (``repro.fuzz`` / ``repro fuzz``).

All campaigns run the smallest config the placement rules admit —
``pipeline`` on ``fullmesh:4`` with f=1 — with tight bounds (few
generations, small batches) so the whole file stays in CI-smoke
territory. ``R_us=30_000`` deliberately under-provisions commission
recovery (~40–76 ms on this config), the knob every "must find"
campaign turns.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import Deployment
from repro.fuzz import (
    FuzzParams,
    MutationSpace,
    artifact_name,
    canonical_script,
    check_corpus,
    load_corpus,
    mutate_script,
    run_fuzz_campaign,
    seed_scripts,
    write_corpus,
)
from repro.fuzz.fitness import fitness_vector
from repro.mc import replay_counterexample
from repro.sim import DeterministicRandom

PIPELINE = Deployment("pipeline", "fullmesh:4", seed=0)

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "corpus")


def small_system():
    system = PIPELINE.system(trace_mode="milestones")
    system.prepare()
    return system


def tiny_params(**kw):
    defaults = dict(kinds=("crash", "commission", "timing"), ticks=2,
                    generations=2, batch=4, elite=3, seed=7)
    defaults.update(kw)
    return FuzzParams(**defaults)


def run_tiny(params=None, **campaign_kw):
    return run_fuzz_campaign(PIPELINE.build_workload(),
                             PIPELINE.build_topology(), PIPELINE.config(),
                             params or tiny_params(),
                             meta=PIPELINE.to_meta(), **campaign_kw)


def small_space(**kw):
    system = small_system()
    defaults = dict(kinds=("crash", "commission", "omission", "timing",
                           "equivocation", "evidence_flood",
                           "rogue_clock"),
                    window=(2.0, 3.0), max_injections=2)
    defaults.update(kw)
    return MutationSpace.from_system(system, **defaults)


# ------------------------------------------------------------ mutation


def test_seed_scripts_cover_kinds_and_ticks():
    space = small_space(kinds=("crash", "commission"))
    seeds = seed_scripts(space, ticks=2)
    assert len(seeds) == 4  # 2 kinds × 2 ticks
    kinds = {s["injections"][0]["kind"] for s in seeds}
    assert kinds == {"crash", "commission"}
    times = {s["injections"][0]["time"] for s in seeds}
    assert len(times) == 2
    lo, hi = space.window_us
    assert all(lo <= t <= hi for t in times)


def test_mutants_always_decode_and_respect_the_space():
    """Every mutant over a long random walk stays valid: decodable,
    inside the window, unique victims, bounded injection count."""
    from repro.faults import script_from_dict

    space = small_space()
    rng = DeterministicRandom(0)
    payload = seed_scripts(space, ticks=1)[0]
    lo, hi = space.window_us
    for step in range(200):
        payload = mutate_script(payload, space, rng.fork(f"s{step}"))
        script = script_from_dict(payload)  # raises if invalid
        assert 1 <= len(script) <= space.max_injections
        assert len(set(script.faulty_nodes)) == len(script)
        assert all(lo <= e["time"] <= hi
                   for e in payload["injections"])
        assert all(e["node"] in space.nodes
                   for e in payload["injections"])


def test_mutation_is_seed_deterministic():
    space = small_space()
    payload = seed_scripts(space, ticks=1)[0]
    a = mutate_script(payload, space, DeterministicRandom(0).fork("x"))
    b = mutate_script(payload, space, DeterministicRandom(0).fork("x"))
    c = mutate_script(payload, space, DeterministicRandom(0).fork("y"))
    assert canonical_script(a) == canonical_script(b)
    assert canonical_script(a) != canonical_script(c) or a == c


# ------------------------------------------------------------ fitness


def test_fitness_vector_orders_by_recovery():
    class T:
        def __init__(self, total, phases):
            self.total_us = total
            self.phases = phases

    calm = fitness_vector([T(10_000, {"detect": 10_000})], 30_000)
    bad = fitness_vector([T(40_000, {"detect": 40_000})], 30_000)
    assert bad > calm
    assert bad[-1] == 10_000  # past the bound by 10 ms
    assert calm[-1] == -20_000
    assert fitness_vector([], 30_000) == (0, 0, 0, -30_000)


# ------------------------------------------------------------ campaign


def test_campaign_finds_minimises_and_confirms_at_tight_R():
    report, stats = run_tiny(tiny_params(R_us=30_000))
    assert report["found"]
    assert report["violating_scripts"] > 0
    for artifact in report["counterexamples"]:
        assert artifact["replay_confirmed"]
        assert artifact["replay_digest"]
        assert len(artifact["fault_script"]["injections"]) == 1
        assert any(v["invariant"] == "recovery-bound"
                   for v in artifact["violations"])
    assert stats.runs == report["evaluated"]


def test_campaign_clean_at_planned_budget():
    report, _ = run_tiny(tiny_params())
    assert report["params"]["R_us"] == report["budget_us"]
    assert not report["found"]
    assert report["violating_scripts"] == 0
    assert report["counterexamples"] == []
    # The search still did real work: coverage and fitness are non-void.
    assert report["coverage"]
    assert report["best_fitness"][0] > 0


def test_campaign_report_byte_identical_across_workers():
    params = tiny_params(R_us=30_000)
    serial, _ = run_tiny(params)
    parallel, stats = run_tiny(FuzzParams(**{**params.__dict__,
                                             "workers": 2}))
    if stats.pool_fallback:
        pytest.skip("process pools unavailable in this environment")
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(parallel, sort_keys=True)


def _timelines_dying_in_workers(result):
    from repro.obs.recovery import reconstruct_timelines
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return reconstruct_timelines(result)


def test_campaign_survives_a_dying_worker(monkeypatch):
    params = tiny_params(R_us=30_000)
    serial, _ = run_tiny(params)
    monkeypatch.setattr("repro.fuzz.campaign.reconstruct_timelines",
                        _timelines_dying_in_workers)
    broken, stats = run_tiny(FuzzParams(**{**params.__dict__,
                                           "workers": 2}))
    assert stats.pool_fallback
    assert json.dumps(broken, sort_keys=True) \
        == json.dumps(serial, sort_keys=True)


def test_minimised_counterexample_still_violates_parent_invariant():
    """The shrunk script must break the same invariant that killed its
    parent, re-checked through a fresh replay."""
    report, _ = run_tiny(tiny_params(R_us=30_000))
    system = small_system()
    for artifact in report["counterexamples"]:
        violations, _ = replay_counterexample(system, artifact)
        observed = {v.invariant for v in violations}
        recorded = {v["invariant"] for v in artifact["violations"]}
        assert recorded <= observed


@pytest.mark.parametrize("injections, kept", [
    ([("crash", "n2", 40_000), ("commission", "n1", 60_000)], 2),
    ([("commission", "n1", 40_000), ("crash", "n2", 60_000)], 1),
])
def test_two_injection_script_minimises_as_a_full_rerun_would(
        monkeypatch, injections, kept):
    """The minimiser takes the evaluated verdict for the whole script
    instead of re-running it, and keeps the prefix (and violations) a
    minimiser that re-runs every cut, the whole script included, keeps."""
    from repro.faults import script_from_dict
    from repro.fuzz import campaign
    from repro.mc import first_violating_prefix, judge
    from repro.mc.campaign import prepare_campaign

    system, params = prepare_campaign(
        PIPELINE.build_workload(), PIPELINE.build_topology(),
        PIPELINE.config(), tiny_params(R_us=30_000, max_injections=2),
        recoveries=2)
    payload = {"version": 2, "injections": [
        {"time": time, "node": node, "kind": kind}
        for kind, node, time in injections]}
    record = campaign._evaluate(system, payload, params=params)
    assert record["violations"]

    def rerun_violations(entries):
        return judge(system, script_from_dict(
            {"version": 2, "injections": entries}),
            n_periods=params.n_periods, R_us=params.R_us, k=params.k)[1]

    expected, violations = first_violating_prefix(
        payload["injections"], rerun_violations, shortest=1)
    assert len(expected) == kept

    runs = []
    monkeypatch.setattr(campaign, "judge",
                        lambda *a, **kw: runs.append(1) or judge(*a, **kw))
    monkeypatch.setattr("repro.mc.counterexample.judge",
                        lambda *a, **kw: runs.append(1) or judge(*a, **kw))
    artifact = campaign._make_artifact(system, record, params, None)
    assert artifact["fault_script"]["injections"] == expected
    assert artifact["violations"] == [v.to_dict() for v in violations]
    assert artifact["replay_confirmed"]
    # Cuts shorter than the whole (one here) plus the replay.
    assert len(runs) == 2


def test_campaign_coverage_guides_survival():
    """Coverage keys accumulate monotonically and the report's history
    accounts for every generation."""
    report, _ = run_tiny(tiny_params(R_us=30_000))
    assert len(report["generations"]) == 3  # seeds + 2 generations
    assert report["generations"][0]["new_coverage"] > 0
    assert sum(g["new_coverage"] for g in report["generations"]) \
        == len(report["coverage"])
    assert any(key.startswith("switch:") for key in report["coverage"])
    assert any(key.startswith("milestone:")
               for key in report["coverage"])
    assert any(key.startswith("verdict:recovery-bound")
               for key in report["coverage"])


# ------------------------------------------------------------ corpus


def _corpus_check_digests(corpus_dir: str) -> list:
    """Corpus replay digests computed in a fresh interpreter."""
    code = f"""
import json
from repro.fuzz import check_corpus

report = check_corpus({corpus_dir!r})
print(json.dumps([(e["name"], e["digest"], e["confirmed"],
                   e["digest_match"]) for e in report["entries"]]))
"""
    import os

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env,
                         cwd=repo)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_corpus_round_trip_and_cross_process_replay(tmp_path):
    """Corpus entries are content-named, reload structurally intact, and
    replay byte-identically (same digest, same verdict) in two separate
    fresh processes."""
    report, _ = run_tiny(tiny_params(R_us=30_000))
    confirmed = [a for a in report["counterexamples"]
                 if a["replay_confirmed"]]
    assert confirmed
    corpus_dir = str(tmp_path / "corpus")
    paths = write_corpus(corpus_dir, confirmed)
    assert len(paths) == len(confirmed)
    entries = load_corpus(corpus_dir)
    assert [name for name, _ in entries] \
        == sorted(artifact_name(a) for a in confirmed)

    first = _corpus_check_digests(corpus_dir)
    second = _corpus_check_digests(corpus_dir)
    assert first == second
    for name, digest, ok, digest_match in first:
        assert ok, f"{name} no longer reproduces its verdict"
        assert digest_match, f"{name} replay digest drifted"


def test_corpus_check_flags_a_stale_entry(tmp_path):
    """An entry whose recorded verdict no longer reproduces (here: its
    bound loosened to the planned budget) must fail the gate."""
    report, _ = run_tiny(tiny_params(R_us=30_000))
    artifact = dict(report["counterexamples"][0])
    artifact["R_us"] = report["budget_us"]  # violation disappears
    corpus_dir = str(tmp_path / "corpus")
    write_corpus(corpus_dir, [artifact])
    check = check_corpus(corpus_dir)
    assert not check["ok"]
    assert check["failed"] == 1
    assert not check["entries"][0]["confirmed"]


def test_corpus_write_is_idempotent(tmp_path):
    report, _ = run_tiny(tiny_params(R_us=30_000))
    confirmed = [a for a in report["counterexamples"]
                 if a["replay_confirmed"]]
    corpus_dir = str(tmp_path / "corpus")
    first = write_corpus(corpus_dir, confirmed)
    before = {p: open(p).read() for p in first}
    second = write_corpus(corpus_dir, confirmed)
    assert first == second
    assert {p: open(p).read() for p in second} == before


# ------------------------------------------------------------ checked-in corpus


def test_checked_in_corpus_replays():
    """Every committed ``corpus/`` entry still reproduces its recorded
    verdict and digest — the same gate CI runs via
    ``repro fuzz corpus-check``."""
    entries = load_corpus(CORPUS_DIR)
    assert entries, "checked-in corpus must not be empty"
    check = check_corpus(CORPUS_DIR, entries=entries)
    assert check["ok"], check


def test_checked_in_corpus_names_are_content_names():
    """Every committed entry is filed under :func:`artifact_name` of its
    own payload, so naming changes cannot orphan an entry."""
    entries = load_corpus(CORPUS_DIR)
    assert entries
    for name, payload in entries:
        assert name == artifact_name(payload)


def test_corpus_check_prepares_one_system_per_deployment(monkeypatch):
    """Entries on one deployment share a prepared system; an entry whose
    meta differs only in its seed names another deployment, and gets
    its own."""
    entries = load_corpus(CORPUS_DIR)
    name, payload = entries[0]
    reseeded = dict(payload, meta=dict(payload["meta"], seed=8))
    built = []
    system = Deployment.system

    def counting(self, **how):
        built.append(self)
        return system(self, **how)

    monkeypatch.setattr(Deployment, "system", counting)
    check_corpus(CORPUS_DIR, entries=entries + [("reseeded.json",
                                                 reseeded)])
    assert [d.seed for d in built] == [7, 8]

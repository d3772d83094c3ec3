"""Tests for the benchmark pipeline in ``tools/run_experiments.py``:
one stream table, one ``aggregate``, one ``append_run``."""

import glob
import json
import os
import re

import pytest

from tools.bench_check import compared, load_runs
from tools import run_experiments
from tools.run_experiments import (REPO, RESULTS, STREAMS, aggregate,
                                   append_run, select)

#: One row per stream, shaped as the benchmarks record it (columns the
#: table does not read are left out).
SAMPLE_ROWS = {
    "suite": {"experiment": "benchmarks/test_e7_planner_scalability.py",
              "wall_s": 4.2, "jobs": 1, "returncode": 0},
    "planner": {"experiment": "e7:n6:f1", "cache_hit": False,
                "cache_key": None, "plans_total": 7, "plans_computed": 7,
                "cache_quarantined": 0, "wall_s": 0.25},
    "obs": {"experiment": "e1:crash", "fault_kind": "crash",
            "total_us": 130000, "messages_dropped": {},
            "phase_sum_mismatch": False,
            "phases": {"detect": 32537, "convict": 6063, "quorum": 5000,
                       "switch": 36400, "settle": 892, "residual": 49108}},
    "sim": {"experiment": "e17:single_commission@fullmesh7/industrial/f1/p20"
                          "/s42", "n_nodes": 7,
            "scenario": "single_commission", "sim_events": 8060,
            "pool_speedup": 1.61, "memo_hits": 758, "memo_misses": 525,
            "digest_match": True},
    "mc": {"experiment": "e18_model_check", "expect": "certify",
           "certified": True, "paths": 38, "distinct_states": 11,
           "dedup_hits": 27, "pruned": 4, "violating_paths": 0,
           "replay_confirmed": 0, "states_per_sec": 48.26419217271806},
    "fuzz": {"experiment": "e20_fuzz", "expect": "find", "found": True,
             "scripts_evaluated": 21, "coverage_keys": 35,
             "violating_scripts": 3, "counterexamples": 3,
             "replay_confirmed": 3},
    "bounds": {"experiment": "e21_static_bounds", "grid": "full",
               "scenario": "industrial-fm7", "sound": True, "checked": 480,
               "skipped_unachievable": 0, "R_us": 594786,
               "class_tightness": {"forgery": 2.4769, "silence": 2.2797,
                                   "timing": 2.3429}},
    "e2e": {"experiment": "e23_host_time", "workload": "search_n4",
            "ops_per_s": 0.8871, "op_p50_ms": 1115.2, "setup_s": 2.9512,
            "peak_rss_mb": 96.4, "ops_attempted": 18, "ops_failed": 0,
            "setup_spread": 0.093, "half_split_ratio": 1.021,
            "noisy": False},
}

#: The three E18 rows behind the committed, pre-trajectory BENCH_mc.json
#: (now ``runs[0]`` of that file).
MC_ROWS = [
    SAMPLE_ROWS["mc"],
    {**SAMPLE_ROWS["mc"], "states_per_sec": 37.158711245077214},
    {"experiment": "e18_model_check", "expect": "violate",
     "certified": False, "paths": 8, "distinct_states": 5, "dedup_hits": 3,
     "pruned": 0, "violating_paths": 4, "replay_confirmed": 4,
     "states_per_sec": 23.830133186739587},
]


def test_aggregate_reproduces_the_committed_history():
    """Same rows in, same numbers out as the per-stream aggregators this
    table replaced: the flat BENCH_mc.json they wrote is runs[0] now."""
    history = load_runs(os.path.join(RESULTS, "BENCH_mc.json"),
                        STREAMS["mc"])[0]
    # Those rows predate the ``shared_prefix_share`` column: it folds to
    # None and everything they did carry folds as it always has, except
    # the retired host rate ``best_states_per_sec`` (now E23's search_n4).
    history["by_expectation"] = {
        key: {**{k: v for k, v in group.items()
                 if k != "best_states_per_sec"},
              "shared_prefix_share": None}
        for key, group in history["by_expectation"].items()}
    assert aggregate("mc", MC_ROWS) == history


def test_aggregate_folds_groups_ratios_and_dict_columns():
    sim = aggregate("sim", [
        SAMPLE_ROWS["sim"],
        {**SAMPLE_ROWS["sim"], "sim_events": 9000, "pool_speedup": None,
         "digest_match": False}])
    assert sim["cases"] == 2 and sim["all_digests_match"] is False
    entry = sim["by_scenario"]["single_commission@n7"]
    assert entry["sim_events"] == 9000
    assert entry["best_pool_speedup"] == 1.61
    assert entry["memo_hit_rate"] == round(1516 / 2566, 3)
    obs = aggregate("obs", [
        SAMPLE_ROWS["obs"],
        {**SAMPLE_ROWS["obs"], "phases": {"detect": 1, "quorum": 9000},
         "messages_dropped": {"messages_dropped.dead": 2},
         "phase_sum_mismatch": True}])
    assert obs["phase_sum_mismatches"] == 1
    assert obs["messages_dropped"] == {"messages_dropped.dead": 2}
    worst = obs["by_fault_kind"]["crash"]["worst_phase_us"]
    assert worst["detect"] == 32537 and worst["quorum"] == 9000


def test_e2e_rows_fold_one_group_per_workload():
    """E23 records one row per workload; each folds, unchanged, into its
    own ``by_workload`` group, where the must-hold and the four compared
    metrics read it."""
    other = {**SAMPLE_ROWS["e2e"], "workload": "cold_plan_f2",
             "ops_per_s": 6.25, "op_p50_ms": 158.0, "ops_failed": 1,
             "noisy": True}
    e2e = aggregate("e2e", [SAMPLE_ROWS["e2e"], other])
    assert e2e["workloads"] == 2
    assert e2e["experiments_seen"] == ["e23_host_time"]
    for row in (SAMPLE_ROWS["e2e"], other):
        group = e2e["by_workload"][row["workload"]]
        assert group == {k: v for k, v in row.items()
                         if k not in ("experiment", "workload")}
    assert sorted(compared(e2e, STREAMS["e2e"], absolute=True)) == [
        f"{workload}: {metric}" for workload in ("cold_plan_f2", "search_n4")
        for metric in ("op_p50_ms", "ops_per_s", "peak_rss_mb", "setup_s")]


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_empty_stream_leaves_its_trajectory_untouched(stream, tmp_path):
    """``--only e7`` used to zero BENCH_mc.json / BENCH_fuzz.json: a
    stream that produced no rows must append nothing."""
    path = tmp_path / f"BENCH_{stream}.json"
    path.write_text(json.dumps({"schema": 4, "runs": [{"git_sha": "a"}]}))
    before = path.read_bytes()
    assert aggregate(stream, []) == {}
    assert append_run(stream, aggregate(stream, []), str(tmp_path)) is False
    assert path.read_bytes() == before


def test_append_run_stamps_the_entry_and_keeps_history(tmp_path,
                                                       monkeypatch):
    history = {"campaigns": 3, "by_expectation": {}}
    path = tmp_path / "BENCH_mc.json"
    path.write_text(json.dumps({"schema": 4, "runs": [history]}))
    monkeypatch.setenv("REPRO_SWEEP", "smoke")
    assert append_run("mc", aggregate("mc", MC_ROWS), str(tmp_path))
    monkeypatch.delenv("REPRO_SWEEP")
    assert append_run("mc", aggregate("mc", MC_ROWS), str(tmp_path))
    first, smoke, full = load_runs(str(path), STREAMS["mc"])
    assert first == history
    assert (smoke["sweep"], full["sweep"]) == ("smoke", "full")
    for fact in ("git_sha", "date_utc", "cores", "python"):
        assert full[fact]
    assert full["by_expectation"] == aggregate("mc", MC_ROWS)[
        "by_expectation"]


def test_only_matches_the_experiment_id_not_a_substring():
    """``--only e1`` is E1 alone, not E1 and E10-E19."""
    assert [os.path.basename(path) for path in select("e1")] == [
        "test_e1_recovery_bound.py"]
    assert len(select("e1,e17")) == 2
    assert len(select("")) == len(glob.glob(
        os.path.join(REPO, "benchmarks", "test_*.py")))


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_table_is_consistent(stream):
    spec = STREAMS[stream]
    # The smoke leg's experiments exist...
    for needle in spec["experiments"]:
        assert glob.glob(os.path.join(
            REPO, "benchmarks", f"test_{needle}_*.py")), needle
    # ...CI's one smoke matrix has a leg that runs exactly them...
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml")) as f:
        legs = dict(re.findall(r'stream: (\w+), only: "([\w,]+)"', f.read()))
    assert set(legs) <= set(STREAMS)
    assert ",".join(spec["experiments"]) in legs.values()
    assert legs.get(stream) in (None, ",".join(spec["experiments"]))
    # ...and every metric the checker is told about is one aggregate
    # produces from a recorded row.
    entry = aggregate(stream, [SAMPLE_ROWS[stream]])
    groups = entry.get(spec["by"][0], {}) if "by" in spec else {}
    for where, metric, expected in spec.get("must_hold", ()):
        holder = entry if where is None else next(iter(groups.values()))
        assert metric in holder, (where, metric)
        if isinstance(expected, str):
            assert expected in holder, (where, expected)
    found = {label.split(": ")[-1].split("[")[0]
             for label in compared(entry, spec, absolute=True)}
    assert found == set(spec.get("compare", {}))


@pytest.mark.parametrize("loads, waited", [
    ([3.0, 1.5, 1.0], 2 * run_experiments.QUIET_POLL_S),
    ([5.0], run_experiments.QUIET_WAIT_S),
], ids=["falls", "capped"])
def test_e23_waits_for_the_load_to_fall(loads, waited, monkeypatch,
                                        capsys):
    """On 2 cores E23 starts once the 1-minute load reads <= 1, or after
    the cap; every poll sleeps, and the wait is printed."""
    readings = iter(loads)
    sleeps = []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "getloadavg",
                        lambda: (next(readings, loads[-1]), 0.0, 0.0))
    monkeypatch.setattr(run_experiments.time, "sleep", sleeps.append)
    assert run_experiments.wait_for_quiet() == waited
    assert sleeps == [run_experiments.QUIET_POLL_S] * (
        waited // run_experiments.QUIET_POLL_S)
    assert f"waited {waited}s" in capsys.readouterr().out

"""Tests for ``tools/bench_check.py``: one ``check`` under one table row.

A trajectory starts life empty, grows to one entry on the first suite
run, and gains scenarios over time — exactly the shapes the checker must
handle without a baseline to regress against. Every comparison case
runs for a higher-is-better wall-clock metric (e2e ops/s, per workload)
*and* a lower-is-better sim-time one (bounds tightness, per scenario).
"""

import json
import subprocess
import sys

import pytest

from tools.bench_check import check
from tools.run_experiments import STREAMS

METRIC = "ops_per_s"
FAST, SLOW = 3.0, 1.0

#: (stream, the metric's label, the stream's groups, values that read as
#: good / >20% worse for that polarity).
POLARITIES = {
    "higher": ("e2e", METRIC, "by_workload", FAST, SLOW),
    "lower": ("bounds", "class_tightness[forgery]", "by_scenario", SLOW,
              FAST),
}


def _run(better, sha, groups, holds=True, **facts):
    """One entry; ``holds=False`` breaks every group's must-hold (an e2e
    op failed, a bound is unsound)."""
    stream, _, by, _, _ = POLARITIES[better]
    if stream == "e2e":
        made = {name: {METRIC: value, "ops_failed": 0 if holds else 1}
                for name, value in groups.items()}
    else:
        made = {name: {"sound": holds, "class_tightness": {"forgery": value}}
                for name, value in groups.items()}
    return {"git_sha": sha, by: made, **facts}


def _check(better, runs):
    return check(runs, STREAMS[POLARITIES[better][0]], 20.0, absolute=True)


def both(test):
    """Run ``test(better, label, good, bad)`` for both polarities inside
    one test function, so the test ids stay what they were."""
    def wrapper():
        for better, (_, label, _, good, bad) in POLARITIES.items():
            test(better, label, good, bad)
    wrapper.__name__ = test.__name__
    wrapper.__doc__ = test.__doc__
    return wrapper


def test_empty_trajectory_passes():
    for stream in STREAMS:
        assert check([], STREAMS[stream]) == ([], [])


@both
def test_single_entry_has_no_baseline_and_reports_new(better, label, good,
                                                      bad):
    problems, new = _check(better, [_run(better, "a", {"flood": good})])
    assert problems == []
    assert new == [f"flood: {label}"]


@both
def test_new_scenario_is_announced_not_skipped(better, label, good, bad):
    runs = [_run(better, "a", {"flood": good}),
            _run(better, "b", {"flood": good, "fuzz_find": bad})]
    problems, new = _check(better, runs)
    assert problems == []
    assert new == [f"fuzz_find: {label}"]


@both
def test_regression_still_fails(better, label, good, bad):
    """>20% worse fails whichever way 'worse' points — for tightness
    that is a bound drifting looser."""
    runs = [_run(better, "a", {"flood": good}),
            _run(better, "b", {"flood": bad})]
    problems, new = _check(better, runs)
    assert len(problems) == 1
    assert f"flood: {label} regressed {good} -> {bad}" in problems[0]
    assert new == []
    # The same step in the good direction is no problem.
    assert _check(better, runs[::-1]) == ([], [])


@both
def test_broken_invariant_fails_even_without_baseline(better, label, good,
                                                      bad):
    problems, _ = _check(better, [_run(better, "a", {"flood": good},
                                       holds=False)])
    assert any("invariant" in p for p in problems)


def test_per_scenario_must_hold_fails_without_a_baseline():
    run = _run("lower", "a", {"flood": SLOW, "fm5": SLOW})
    run["by_scenario"]["fm5"]["sound"] = False
    problems, _ = _check("lower", [run])
    assert len(problems) == 1 and problems[0].startswith("fm5: sound is")


def test_wall_clock_metrics_need_absolute_sim_time_ones_do_not():
    def runs(better):
        _, _, _, good, bad = POLARITIES[better]
        return [_run(better, "a", {"flood": good}),
                _run(better, "b", {"flood": bad})]
    assert check(runs("higher"), STREAMS["e2e"]) == ([], [])
    problems, _ = check(runs("lower"), STREAMS["bounds"])
    assert len(problems) == 1


def test_unresolved_groups_are_never_a_baseline():
    """An e2e group its own run flagged ``noisy``, or whose set-up
    spread exceeds the threshold, is no baseline; the latest entry is
    compared all the same."""
    fast = [_run("higher", sha, {"flood": FAST, "fm5": FAST})
            for sha in "ab"]
    fast[0]["by_workload"]["flood"]["noisy"] = True
    fast[1]["by_workload"]["fm5"]["setup_spread"] = 0.21
    slow = _run("higher", "c", {"flood": SLOW, "fm5": SLOW})
    problems, new = _check("higher", fast + [slow])
    assert [p.split(" regressed")[0] for p in problems] == [
        f"flood: {METRIC}", f"fm5: {METRIC}"]
    problems, new = _check("higher", [fast[1], fast[0]])
    assert problems == [] and new == [f"fm5: {METRIC}"]
    fast[1]["by_workload"]["fm5"]["setup_spread"] = 0.2
    assert _check("higher", [fast[1], slow])[1] == []
    slow["by_workload"]["flood"]["noisy"] = True
    problems, _ = _check("higher", [fast[1], slow])
    assert len(problems) == 2


def test_cli_passes_on_one_entry_trajectory(tmp_path):
    path = tmp_path / "BENCH_e2e.json"
    path.write_text(json.dumps({
        "schema": 4, "runs": [_run("higher", "a", {"flood": FAST})]}))
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", str(path), "--absolute"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert f"NEW flood: {METRIC}" in out.stdout


def test_cli_rejects_unreadable_trajectory(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text("{not json")
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", str(path)],
        capture_output=True, text=True)
    assert out.returncode == 2


@pytest.mark.parametrize("text", [
    json.dumps({"runs": [1]}),
    json.dumps({"runs": [{"by_workload": [1, 2]}]}),
    json.dumps({"runs": [{"by_workload": {"flood": 3}}]}),
    json.dumps({"runs": [_run("higher", "a", {"flood": FAST}),
                         _run("higher", "b", {"flood": "fast"})]}),
    json.dumps({"runs": [_run("higher", "a", {"flood": FAST})]})[:-7],
], ids=["run-not-object", "groups-not-object", "group-not-object",
        "compared-string", "truncated"])
def test_cli_names_a_bad_trajectory_in_one_line(tmp_path, text):
    path = tmp_path / "BENCH_e2e.json"
    path.write_text(text)
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", str(path), "--absolute"],
        capture_output=True, text=True)
    assert out.returncode == 2
    [line] = out.stderr.splitlines()
    assert line.startswith(f"bench_check: cannot read trajectory {path}: ")


#: One latest entry per stream whose only defect is a broken must-hold.
BROKEN = {
    "suite": {"by_experiment": {"benchmarks/test_e7.py": {"returncode": 1}}},
    "planner": {"cache_quarantined": 1},
    "obs": {"phase_sum_mismatches": 1},
    "sim": {"all_digests_match": False},
    "mc": {"by_expectation": {"certify": {
        "campaigns": 2, "certified": 1, "violating_paths": 0}}},
    "fuzz": {"by_expectation": {"clean": {"violating_scripts": 3}}},
    "bounds": {"all_sound": False},
    "e2e": {"by_workload": {"search_n4": {"ops_failed": 1}}},
}


def test_cli_passes_committed_files_and_fails_each_broken_must_hold(
        tmp_path):
    out = subprocess.run([sys.executable, "tools/bench_check.py"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    for stream in STREAMS:
        assert f"BENCH_{stream}.json" in out.stdout
    assert sorted(BROKEN) == sorted(
        s for s in STREAMS if STREAMS[s].get("must_hold"))
    for stream, entry in BROKEN.items():
        path = tmp_path / f"BENCH_{stream}.json"
        path.write_text(json.dumps({"schema": 4, "runs": [entry]}))
        out = subprocess.run(
            [sys.executable, "tools/bench_check.py", str(path)],
            capture_output=True, text=True)
        assert out.returncode == 1, (stream, out.stdout)
        assert "invariant broken" in out.stderr


@both
def test_other_host_entries_are_never_a_baseline(better, label, good, bad):
    """Wall-clock metrics (e2e) only compare under equal (cores, python,
    sweep) stamps, sim-time ones under an equal sweep. Entries that
    predate the sweep stamp were full sweeps: without host stamps they
    are no wall-clock baseline, but they still anchor sim-time ratios."""
    other = _run(better, "a", {"s1": good}, cores=8, python="3.12.1",
                 sweep="smoke")
    history = _run(better, "b", {"s1": good})
    here = dict(cores=2, python="3.11.7", sweep="full")
    worse = _run(better, "c", {"s1": bad}, **here)
    assert _check(better, [other, worse]) == ([], [f"s1: {label}"])
    problems, new = _check(better, [other, history, worse])
    if better == "higher":
        assert (problems, new) == ([], [f"s1: {label}"])
    else:
        assert len(problems) == 1 and new == []
    again = _run(better, "d", {"s1": bad * (0.5 if better == "higher"
                                            else 2)}, **here)
    problems, _ = _check(better, [other, worse, again])
    assert len(problems) == 1 and f"regressed {bad} ->" in problems[0]

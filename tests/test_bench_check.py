"""Tests for ``tools/bench_check.py`` edge cases.

The BENCH_fuzz trajectory starts life empty, grows to one entry on the
first suite run, and gains scenarios over time — exactly the shapes the
checker must handle without a baseline to regress against.
"""

import json
import subprocess
import sys

from tools.bench_check import check, load_runs

METRIC = ("best_events_per_s_milestones",)


def _run(sha, scenarios, identical=True):
    return {
        "git_sha": sha,
        "all_digests_match": identical,
        "cases": len(scenarios),
        "by_scenario": {name: {METRIC[0]: value}
                        for name, value in scenarios.items()},
    }


def test_empty_trajectory_passes():
    assert check([], METRIC, 20.0) == ([], [])


def test_single_entry_has_no_baseline_and_reports_new():
    problems, new = check([_run("a", {"flood": 3.0})], METRIC, 20.0)
    assert problems == []
    assert new == [f"flood: {METRIC[0]}"]


def test_new_scenario_is_announced_not_skipped():
    runs = [_run("a", {"flood": 3.0}),
            _run("b", {"flood": 3.1, "fuzz_find": 2.0})]
    problems, new = check(runs, METRIC, 20.0)
    assert problems == []
    assert new == [f"fuzz_find: {METRIC[0]}"]


def test_regression_still_fails():
    runs = [_run("a", {"flood": 3.0}), _run("b", {"flood": 1.0})]
    problems, new = check(runs, METRIC, 20.0)
    assert len(problems) == 1
    assert "regressed" in problems[0]
    assert new == []


def test_broken_invariant_fails_even_without_baseline():
    problems, _ = check([_run("a", {"flood": 3.0}, identical=False)],
                        METRIC, 20.0)
    assert any("invariant" in p for p in problems)


def test_cli_passes_on_one_entry_trajectory(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps({"schema": 3,
                                "runs": [_run("a", {"flood": 3.0})]}))
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", "--path", str(path),
         "--absolute"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert f"NEW flood: {METRIC[0]}" in out.stdout


def test_cli_rejects_unreadable_trajectory(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text("{not json")
    out = subprocess.run(
        [sys.executable, "tools/bench_check.py", "--path", str(path)],
        capture_output=True, text=True)
    assert out.returncode == 2


def test_load_runs_accepts_legacy_bare_aggregate(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps({"cases": 3, "by_scenario": {}}))
    assert len(load_runs(str(path))) == 1


def test_other_host_entries_are_never_a_baseline():
    # Absolute events/s only compare under equal (cores, python) stamps;
    # the unstamped ratio-era history is skipped the same way.
    fast = dict(_run("a", {"s1": 900_000}), cores=8, python="3.12.1")
    history = _run("b", {"s1": 700_000})
    slow = dict(_run("c", {"s1": 100_000}), cores=2, python="3.11.7")
    assert check([fast, history, slow], METRIC, 20.0) \
        == ([], [f"s1: {METRIC[0]}"])
    again = dict(_run("d", {"s1": 50_000}), cores=2, python="3.11.7")
    problems, _ = check([fast, history, slow, again], METRIC, 20.0)
    assert len(problems) == 1 and "regressed 100000 -> 50000" in problems[0]

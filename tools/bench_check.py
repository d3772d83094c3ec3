#!/usr/bin/env python3
"""Guard the tracked BENCH trajectories against regressions.

``benchmarks/results/BENCH_sim.json`` is a *tracked* trajectory: every
suite run appends one entry (git sha, date, host ``cores`` and
``python``, per-scenario absolute events/sec from E17/E19/E22 — see
``tools/run_experiments.py``).

* **the invariant** is always enforced: a latest entry recording
  ``all_digests_match: false`` — some run's full trace differed from its
  committed digest in ``tests/golden/`` — fails regardless of
  thresholds.
* **absolute metrics** (``best_events_per_s_*``, ``best_pool_speedup``
  per scenario) are only checked with ``--absolute``, against the best
  earlier entry *from the same host facts* (``cores``, ``python``), and
  fail on a >20% regression. Wall-clock throughput on shared CI runners
  is advice, not ground truth; enable this locally on a quiet machine.
  Entries stamped with other host facts — including the unstamped
  speedup-ratio entries recorded while a reference engine path still
  existed, which stay in the file as history — are never a baseline.

``benchmarks/results/BENCH_bounds.json`` is the second tracked
trajectory (static recovery bounds, appended by full-grid E21 runs) and
gets the same treatment with the polarity flipped:

* **soundness** is an invariant — a latest entry whose ``all_sound`` is
  false, or any scenario recording ``sound: false``, fails regardless
  of thresholds;
* **tightness ratios** (per scenario and fault class, bound over worst
  empirical recovery) are *lower*-is-better: the baseline is the best
  (smallest) earlier ratio and a >20% increase fails — a bound that
  drifts looser certifies less while still passing soundness.

Usage:  python tools/bench_check.py [--absolute] [--threshold PCT]
                [--path FILE] [--bounds-path FILE]

Exit codes: 0 ok (or fewer than two comparable entries), 1 regression or
broken invariant, 2 unreadable trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATH = os.path.join(REPO, "benchmarks", "results",
                            "BENCH_sim.json")
DEFAULT_BOUNDS_PATH = os.path.join(REPO, "benchmarks", "results",
                                   "BENCH_bounds.json")

ABSOLUTE_METRICS = ("best_events_per_s_full", "best_events_per_s_milestones",
                    "best_sweep_events_per_s", "best_pool_speedup")


def load_runs(path: str) -> list:
    with open(path) as f:
        payload = json.load(f)
    if isinstance(payload, dict) and isinstance(payload.get("runs"), list):
        return payload["runs"]
    if isinstance(payload, dict) and payload.get("cases"):
        # Legacy schema 1: a single bare aggregate, usable as baseline.
        return [payload]
    raise ValueError("no runs in trajectory")


def scenario_metrics(run: dict, metrics) -> dict:
    """{(scenario, metric): value} for every present, non-null metric."""
    out = {}
    for scenario, entry in (run.get("by_scenario") or {}).items():
        for metric in metrics:
            value = entry.get(metric)
            if value:
                out[(scenario, metric)] = value
    return out


def check(runs: list, metrics, threshold_pct: float) -> tuple:
    """``(problems, new)`` comparing the last run to the best baseline.

    The baseline per (scenario, metric) is the *maximum* over all
    earlier entries recorded under the latest entry's host facts
    (``cores``, ``python``; unstamped entries only match each other) —
    a slow run appended yesterday must not become an excuse for being
    slow today, and numbers from another machine are no baseline at
    all. A scenario the baseline measured but the latest run didn't is
    skipped (smoke entries measure a subset of the full sweep); a
    (scenario, metric) present **only** in the latest
    run is returned in ``new`` so a freshly added trajectory column is
    announced, never silently ignored. An empty or one-entry trajectory
    has no baseline to regress against and passes cleanly.
    """
    if not runs:
        return [], []
    latest = runs[-1]
    problems = []
    if latest.get("all_digests_match") is False:
        problems.append("latest entry: a full trace does NOT match its "
                        "committed digest (invariant broken — this is a "
                        "bug, not a perf regression)")
    current = scenario_metrics(latest, metrics)
    if len(runs) < 2:
        new = [f"{scenario}: {metric}"
               for scenario, metric in sorted(current)]
        return problems, new
    host = (latest.get("cores"), latest.get("python"))
    baseline: dict = {}
    for run in runs[:-1]:
        if (run.get("cores"), run.get("python")) != host:
            continue
        for key, value in scenario_metrics(run, metrics).items():
            baseline[key] = max(baseline.get(key, 0), value)
    floor = 1.0 - threshold_pct / 100.0
    for key, base in sorted(baseline.items()):
        value = current.get(key)
        if value is None:
            continue
        if value < base * floor:
            scenario, metric = key
            problems.append(
                f"{scenario}: {metric} regressed {base} -> {value} "
                f"(>{threshold_pct:.0f}% below baseline)")
    new = [f"{scenario}: {metric}"
           for scenario, metric in sorted(set(current) - set(baseline))]
    return problems, new


def bounds_ratios(run: dict) -> dict:
    """{(scenario, fault_class): tightness} for one bounds entry."""
    out = {}
    for scenario, entry in (run.get("by_scenario") or {}).items():
        for fault_class, ratio in (entry.get("class_tightness")
                                   or {}).items():
            if ratio:
                out[(scenario, fault_class)] = ratio
    return out


def check_bounds(runs: list, threshold_pct: float) -> tuple:
    """``(problems, new)`` for the static-bounds trajectory.

    Soundness is an unconditional invariant of the latest entry;
    tightness ratios are lower-is-better, compared against the best
    (smallest) earlier ratio per (scenario, class) — a loose run
    appended yesterday must not become an excuse for being loose today.
    """
    if not runs:
        return [], []
    latest = runs[-1]
    problems = []
    if latest.get("all_sound") is False:
        problems.append("latest bounds entry: soundness violated "
                        "(an empirical recovery escaped its static "
                        "bound — this is a bug, not a regression)")
    for scenario, entry in sorted((latest.get("by_scenario")
                                   or {}).items()):
        if entry.get("sound") is False:
            problems.append(f"{scenario}: static bound UNSOUND in "
                            f"latest entry")
    current = bounds_ratios(latest)
    if len(runs) < 2:
        new = [f"{scenario}: tightness[{fault_class}]"
               for scenario, fault_class in sorted(current)]
        return problems, new
    baseline: dict = {}
    for run in runs[:-1]:
        for key, value in bounds_ratios(run).items():
            baseline[key] = min(baseline.get(key, value), value)
    ceiling = 1.0 + threshold_pct / 100.0
    for key, base in sorted(baseline.items()):
        value = current.get(key)
        if value is None:
            continue
        if value > base * ceiling:
            scenario, fault_class = key
            problems.append(
                f"{scenario}: tightness[{fault_class}] loosened "
                f"{base} -> {value} (>{threshold_pct:.0f}% above "
                f"baseline)")
    new = [f"{scenario}: tightness[{fault_class}]"
           for scenario, fault_class in sorted(set(current)
                                               - set(baseline))]
    return problems, new


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--path", default=DEFAULT_PATH, metavar="FILE",
                        help="sim trajectory file (default: "
                             "benchmarks/results/BENCH_sim.json)")
    parser.add_argument("--bounds-path", default=DEFAULT_BOUNDS_PATH,
                        metavar="FILE",
                        help="static-bounds trajectory file (default: "
                             "benchmarks/results/BENCH_bounds.json)")
    parser.add_argument("--threshold", type=float, default=20.0,
                        metavar="PCT",
                        help="allowed regression in percent (default 20)")
    parser.add_argument("--absolute", action="store_true",
                        help="also check absolute events/sec metrics "
                             "(off by default: wall clock on shared "
                             "runners is advice, not ground truth)")
    args = parser.parse_args()

    try:
        runs = load_runs(args.path)
    except (OSError, ValueError) as exc:
        print(f"bench_check: cannot read trajectory {args.path}: {exc}",
              file=sys.stderr)
        return 2

    metrics = ABSOLUTE_METRICS if args.absolute else ()
    problems, new = check(runs, metrics, args.threshold)
    if not runs:
        print("bench_check: trajectory has no entries yet; nothing to "
              "compare")
        return 0
    latest = runs[-1]
    print(f"bench_check: {len(runs)} trajectory entries; latest "
          f"{latest.get('git_sha', '?')} ({latest.get('date_utc', '?')}, "
          f"{latest.get('cases', 0)} cases, {latest.get('cores', '?')} "
          f"cores, python {latest.get('python', '?')})")
    for entry in new:
        print(f"bench_check: NEW {entry} (no earlier baseline; "
              f"becomes one next run)")
    try:
        bounds_runs = load_runs(args.bounds_path)
    except (OSError, ValueError) as exc:
        print(f"bench_check: cannot read bounds trajectory "
              f"{args.bounds_path}: {exc}", file=sys.stderr)
        return 2
    bounds_problems, bounds_new = check_bounds(bounds_runs,
                                               args.threshold)
    problems += bounds_problems
    if bounds_runs:
        b_latest = bounds_runs[-1]
        print(f"bench_check: {len(bounds_runs)} bounds entries; latest "
              f"{b_latest.get('git_sha', '?')} "
              f"({b_latest.get('date_utc', '?')}, "
              f"{len(b_latest.get('by_scenario') or {})} scenarios, "
              f"all_sound={b_latest.get('all_sound')})")
    for entry in bounds_new:
        print(f"bench_check: NEW {entry} (no earlier baseline; "
              f"becomes one next run)")
    if problems:
        for p in problems:
            print(f"bench_check: FAIL {p}", file=sys.stderr)
        return 1
    print(f"bench_check: OK (engine digests match; no checked sim "
          f"metric more than {args.threshold:.0f}% below its same-host "
          f"baseline; bounds sound, no tightness more than "
          f"{args.threshold:.0f}% above baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

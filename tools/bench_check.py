#!/usr/bin/env python3
"""Guard the tracked BENCH trajectories against regressions.

Every ``benchmarks/results/BENCH_<stream>.json`` is a tracked
trajectory: each suite run that exercised the stream appends one entry
stamped ``git_sha`` / ``date_utc`` / ``cores`` / ``python`` / ``sweep``
(``tools/run_experiments.py``). One rule gates them all, read from that
file's ``STREAMS`` table (docs/HACKING.md, "Benchmark pipeline"):

* **must-holds** (``all_digests_match``, ``all_sound``, a certify
  campaign certifying, ...) are checked on the latest entry and fail
  regardless of thresholds — a broken one is a bug, not a regression.
* **compared metrics** are held against the best earlier entry *with
  equal comparability facts* and fail when more than ``--threshold``
  percent worse. Sim-time metrics (tightness ratios) need an equal
  ``sweep`` and are always checked; wall-clock ones (events/s) also
  need equal ``cores`` and ``python`` and are only checked with
  ``--absolute`` — throughput on shared CI runners is advice, not
  ground truth; enable it locally on a quiet machine. Entries with other
  facts, including the unstamped history, are never a baseline.

Usage:  python tools/bench_check.py [--absolute] [--threshold PCT]
                [BENCH_<stream>.json ...]

Exit codes: 0 ok (or nothing comparable yet), 1 regression or broken
must-hold, 2 unreadable trajectory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not __package__:  # run as a script, `tools` is not importable
    sys.path.insert(0, REPO)

from tools.run_experiments import RESULTS, STREAMS  # noqa: E402

#: The facts two entries must share before a metric on that clock is
#: compared between them.
FACTS = {"wall": ("cores", "python", "sweep"), "sim": ("sweep",)}


#: What a compared or must-hold value may be, alone or as the values of
#: an object (a dict-valued metric yields one label per key).
SCALARS = (bool, int, float, type(None))


def load_runs(path: str, spec: dict) -> list:
    """A trajectory's entries, oldest first; a bare aggregate (the
    pre-trajectory format) counts as one unstamped entry.

    Raises ValueError on a shape :func:`check` cannot read under
    ``spec``: a run or a group that is not an object, or a compared or
    must-hold value that is not a number, a bool or null."""
    with open(path) as f:
        payload = json.load(f)
    if isinstance(payload, dict) and isinstance(payload.get("runs"), list):
        runs = payload["runs"]
    elif isinstance(payload, dict) and payload:
        runs = [payload]
    else:
        raise ValueError("no runs in trajectory")
    metrics = [*spec.get("compare", {})] + [
        name for _, metric, expected in spec.get("must_hold", ())
        for name in (metric, expected) if isinstance(name, str)]
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            raise ValueError(f"run {i} is {run!r}, not an object")
        if "by" in spec:
            groups = run.get(spec["by"][0])
            if groups is not None and not (
                    isinstance(groups, dict)
                    and all(isinstance(g, dict) for g in groups.values())):
                raise ValueError(f"run {i}: {spec['by'][0]} is not an "
                                 f"object of objects")
        for label, entry in entries(run, spec):
            for metric in metrics:
                value = entry.get(metric)
                if not all(isinstance(v, SCALARS) for v in (
                        value.values() if isinstance(value, dict)
                        else [value])):
                    raise ValueError(f"run {i}: {label or 'entry'}: "
                                     f"{metric} is {value!r}, not a number")
    return runs


def entries(run: dict, spec: dict) -> list:
    """``[(label, dict)]``: the entry itself, then each of its groups."""
    groups = run.get(spec["by"][0]) if "by" in spec else None
    return [("", run)] + sorted((groups or {}).items())


def broken_must_holds(latest: dict, spec: dict) -> list:
    problems = []
    for where, metric, expected in spec.get("must_hold", ()):
        for label, entry in entries(latest, spec):
            if not (label == "" if where is None else
                    label != "" if where == "*" else label == where):
                continue
            value = entry.get(metric)
            want = (entry.get(expected) if isinstance(expected, str)
                    else expected)
            if value is not None and value != want:
                problems.append(
                    f"{label + ': ' if label else ''}{metric} is {value}, "
                    f"must be {want} (invariant broken — this is a bug, "
                    f"not a regression)")
    return problems


def compared(run: dict, spec: dict, absolute: bool) -> dict:
    """``{label: (value, better, facts)}`` for every present, non-null
    compared metric; a dict-valued metric yields one label per key."""
    out = {}
    for where, entry in entries(run, spec):
        for metric, (better, clock) in spec.get("compare", {}).items():
            if clock == "wall" and not absolute:
                continue
            # Entries older than the sweep stamp were all full sweeps.
            facts = tuple(run.get(f, "full" if f == "sweep" else None)
                          for f in FACTS[clock])
            value = entry.get(metric)
            for key, v in (value.items() if isinstance(value, dict)
                           else [(None, value)]):
                if v:
                    label = metric if key is None else f"{metric}[{key}]"
                    out[f"{where}: {label}" if where else label] = (
                        v, better, facts)
    return out


def check(runs: list, spec: dict, threshold_pct: float = 20.0,
          absolute: bool = False) -> tuple:
    """``(problems, new)`` for one trajectory under its table row.

    Must-holds are checked on the latest entry alone. Each compared
    metric's baseline is the *best* value over all earlier entries with
    the latest entry's comparability facts — a slow run appended
    yesterday must not become an excuse for being slow today, and
    numbers from another machine or another sweep are no baseline at
    all. A metric the baseline measured but the latest run didn't is
    skipped; one present **only** in the latest run is returned in
    ``new`` so a freshly added column is announced, never silently
    ignored. An empty trajectory passes cleanly.
    """
    if not runs:
        return [], []
    problems = broken_must_holds(runs[-1], spec)
    current = compared(runs[-1], spec, absolute)
    baseline: dict = {}
    for run in runs[:-1]:
        for label, (value, better, facts) in compared(
                run, spec, absolute).items():
            if label in current and facts == current[label][2]:
                best = max if better == "higher" else min
                baseline[label] = best(baseline.get(label, value), value)
    slack = threshold_pct / 100.0
    for label, base in sorted(baseline.items()):
        value, better, _ = current[label]
        if better == "higher" and value < base * (1.0 - slack):
            problems.append(f"{label} regressed {base} -> {value} "
                            f"(>{threshold_pct:.0f}% below baseline)")
        elif better == "lower" and value > base * (1.0 + slack):
            problems.append(f"{label} regressed {base} -> {value} "
                            f"(>{threshold_pct:.0f}% above baseline)")
    return problems, sorted(set(current) - set(baseline))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", metavar="BENCH_<stream>.json",
                        help="trajectory files (default: every "
                             "benchmarks/results/BENCH_*.json)")
    parser.add_argument("--threshold", type=float, default=20.0,
                        metavar="PCT",
                        help="allowed regression in percent (default 20)")
    parser.add_argument("--absolute", action="store_true",
                        help="also compare wall-clock metrics (off by "
                             "default: wall clock on shared runners is "
                             "advice, not ground truth)")
    args = parser.parse_args()

    failed = False
    for path in args.files or sorted(glob.glob(
            os.path.join(RESULTS, "BENCH_*.json"))):
        name = os.path.basename(path)
        try:
            spec = STREAMS[name[len("BENCH_"):-len(".json")]]
            runs = load_runs(path, spec)
        except (KeyError, OSError, ValueError) as exc:
            print(f"bench_check: cannot read trajectory {path}: {exc!r}",
                  file=sys.stderr)
            return 2
        problems, new = check(runs, spec, args.threshold, args.absolute)
        latest = runs[-1] if runs else {}
        print(f"bench_check: {name}: {len(runs)} entries; latest "
              f"{latest.get('git_sha', '?')} ({latest.get('date_utc', '?')}, "
              f"{latest.get('sweep', '?')} sweep, {latest.get('cores', '?')} "
              f"cores, python {latest.get('python', '?')})")
        for label in new:
            print(f"bench_check: {name}: NEW {label} (no earlier "
                  f"baseline; becomes one next run)")
        for problem in problems:
            print(f"bench_check: {name}: FAIL {problem}", file=sys.stderr)
        failed = failed or bool(problems)
    if failed:
        return 1
    print(f"bench_check: OK (every must-hold holds; no compared metric "
          f"more than {args.threshold:.0f}% worse than its baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two result documents of ``run.py --out``: ``compare.py A B``.

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate. Per (end-to-end metric, workload) row the
verdict is

``regressed``   B is worse than A by more than the metric's bound;
``improved``    B is better than A by more than the bound;
``unchanged``   neither;
``unresolved``  either run's own spread exceeds the bound, so the row
                cannot be judged: the two halves of a run disagree by
                more than the bound (throughput and latency), or its
                set-up repetitions do (``setup_s``).

Every simulated-side count (and count ratio) of the per-layer metrics
must be exactly equal in A and B. Exits 1 on a regression, a count
mismatch or a failed op; 0 otherwise.
"""

import json
import sys

import catalogue


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "workloads" not in doc:
        raise SystemExit(f"{path}: not a result document of run.py --out")
    return doc


def own_spread(run: dict, metric: str) -> float:
    """How far one run disagrees with itself on ``metric`` (a share)."""
    if metric in ("ops_per_s", "op_p50_ms"):
        return abs(run["diagnostics"]["half_split_ratio"] - 1.0)
    if metric == "setup_s":
        samples = sorted(run["setup_samples_s"])
        return (samples[-1] - samples[0]) / samples[len(samples) // 2]
    return 0.0


def verdict(base: float, new: float, better: str, bound: float,
            spread: float) -> str:
    if spread > bound:
        return "unresolved"
    worsening = (new - base) / base
    if better == "higher":
        worsening = -worsening
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict) -> list:
    """Rows ``(workload, metric, a, b, verdict)`` for every workload
    both documents hold."""
    units = {name: unit for name, unit, _ in catalogue.PER_LAYER}
    # Counts repeat exactly only for one and the same list of ops.
    same_ops = a.get("seed") == b.get("seed")
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        run_a, run_b = a["workloads"][name], b["workloads"][name]
        for metric, _, better, bound in catalogue.END_TO_END:
            va = run_a["end_to_end"][metric]
            vb = run_b["end_to_end"][metric]
            spread = max(own_spread(run_a, metric),
                         own_spread(run_b, metric))
            rows.append((name, metric, va, vb,
                         verdict(va, vb, better, bound, spread)))
        failed = run_a["ops_failed"] + run_b["ops_failed"]
        rows.append((name, "ops_failed", run_a["ops_failed"],
                     run_b["ops_failed"],
                     "regressed" if failed else "unchanged"))
        layers_a = run_a.get("per_layer", {}) if same_ops else {}
        layers_b = run_b.get("per_layer", {})
        for metric in layers_a:
            if metric in layers_b and catalogue.is_exact(metric,
                                                         units[metric]) \
                    and layers_a[metric] != layers_b[metric]:
                rows.append((name, metric, layers_a[metric],
                             layers_b[metric], "count-changed"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    if a.get("seed") != b.get("seed"):
        print(f"note: seeds differ ({a.get('seed')} vs {b.get('seed')}); "
              f"counts are not compared")
    rows = compare(a, b)
    for workload, metric, va, vb, outcome in rows:
        change = f"{(vb - va) / va:+.1%}" if va else "n/a"
        print(f"{workload:<20} {metric:<34} {va:>12.6g} {vb:>12.6g} "
              f"{change:>8}  {outcome}")
    bad = [r for r in rows if r[4] in ("regressed", "count-changed")]
    print(f"{len(rows)} rows, {len(bad)} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

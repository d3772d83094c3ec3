#!/usr/bin/env python3
"""Regenerate every experiment and collate the tables into one report.

Statically verifies the strategies the experiments rely on (a number
from an unsound strategy is worse than no number), runs the suite one
pytest shard per benchmark file — each shard plans the strategies it
runs — and stitches ``benchmarks/results/*.txt`` into ``REPORT.txt``,
the file EXPERIMENTS.md quotes from.

Measurements take one path (docs/HACKING.md, "Benchmark pipeline"):
benchmarks append rows to per-stream scratch files, :data:`STREAMS` says
how rows fold into an aggregate, :func:`append_run` appends it to the
tracked ``BENCH_<stream>.json``, ``tools/bench_check.py`` gates that.

Usage:  python tools/run_experiments.py [--jobs N] [--only eN[,eM...]]
                [--skip-run] [--skip-verify]
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(REPO, "benchmarks", "results")
SCHEMA = 4  # of ``{"schema", "runs": [entry, ...]}``, oldest entry first

ORDER = [
    "e1_recovery_bound", "e2_replica_cost", "e3_timeliness",
    "e4_mixed_criticality", "e5_adversary_pacing", "e5_budget_rule",
    "e6_latency_decomposition", "e7_planner_scalability",
    "e8_plant_inertia", "e8_closed_loop", "e9_omission_blame",
    "e9_targeted_omission", "e10_evidence_flooding",
    "e11_ablation_plan_distance", "e12_ablation_placement",
    "e13_ablation_strategic", "e14_clock_sync", "e14_rogue_clock",
    "e15_resource_dependence", "e16_link_faults", "e17_engine",
    "e18_model_check", "e20_fuzz", "e21_static_bounds", "e23_host_time",
]

#: ``repro verify --strict`` arguments for the scenarios whose strategies
#: the experiments simulate. The waiver: avionics' n2 is *provably* never
#: attributable (its omission declarers tie with a co-charged innocent) —
#: a documented property of that deployment, not a defect.
VERIFY_SCENARIOS = [
    ["--workload", "industrial", "--topology", "fullmesh:7", "--f", "1"],
    ["--workload", "avionics", "--topology", "mesh:3x3", "--f", "1",
     "--waive", "bound.unachievable:n2"],
]

COUNT, SUM = ("count",), ("sum",)

#: One row per benchmark stream, read by :func:`aggregate` and by
#: ``bench_check.check`` (grammar: docs/HACKING.md, "Benchmark pipeline").
#: ``experiments``: ``--only`` of the stream's CI smoke leg; ``top`` /
#: ``group``: ``metric: (op[, column[, ndigits]])`` folding rows into the
#: entry / each dict under ``by = (name, key template)``; ``must_hold``:
#: ``(where, metric, expected)``; ``compare``: ``metric: (better, clock)``.
STREAMS = {
    "suite": {
        "experiments": ("e7",), "by": ("by_experiment", "{experiment}"),
        "top": {"shards": COUNT, "shard_wall_s": ("sum", "wall_s", 3)},
        "group": {"wall_s": ("max",), "returncode": ("max",)},
        "must_hold": [("*", "returncode", 0)],
        "compare": {"wall_s": ("lower", "wall")},
    },
    "planner": {
        "experiments": ("e7",),
        "top": {
            "prepares": COUNT, "plans_computed": SUM, "plans_total": SUM,
            "cache_quarantined": SUM,
        },
        "must_hold": [(None, "cache_quarantined", 0)],
    },
    "obs": {
        "experiments": ("e1",), "by": ("by_fault_kind", "{fault_kind}"),
        "top": {"timelines": COUNT, "messages_dropped": SUM,
                "phase_sum_mismatches": ("sum", "phase_sum_mismatch")},
        "group": {"timelines": COUNT, "min_total_us": ("min", "total_us"),
                  "max_total_us": ("max", "total_us"),
                  "worst_phase_us": ("max", "phases")},
        "must_hold": [(None, "phase_sum_mismatches", 0)],
        "compare": {"max_total_us": ("lower", "sim")},
    },
    "sim": {
        "experiments": ("e17",),
        "by": ("by_scenario", "{scenario}@n{n_nodes}"),
        "top": {"cases": COUNT, "all_digests_match": ("all", "digest_match")},
        "group": {
            "cases": COUNT, "sim_events": ("max",),
            "best_pool_speedup": ("max", "pool_speedup"),
            "memo_hits": SUM, "memo_misses": SUM,
            "memo_hit_rate": ("ratio", ("memo_hits",),
                              ("memo_hits", "memo_misses"), 3),
        },
        "must_hold": [(None, "all_digests_match", True)],
        "compare": {"best_pool_speedup": ("higher", "wall")},
    },
    "mc": {
        "experiments": ("e18",), "by": ("by_expectation", "{expect}"),
        "top": {"campaigns": COUNT, "paths": SUM},
        "group": {
            "campaigns": COUNT, "certified": SUM, "paths": SUM,
            "distinct_states": SUM, "dedup_hits": SUM, "pruned": SUM,
            "violating_paths": SUM, "replay_confirmed": SUM,
            "shared_prefix_share": ("max", "shared_prefix_share", 3),
            "dedup_hit_rate": ("ratio", ("dedup_hits",), ("paths",), 3),
            "prune_ratio": ("ratio", ("pruned",), ("pruned", "paths"), 3),
        },
        "must_hold": [("certify", "certified", "campaigns"),
                      ("certify", "violating_paths", 0)],
    },
    "fuzz": {
        "experiments": ("e20",), "by": ("by_expectation", "{expect}"),
        "top": {"campaigns": COUNT, "scripts_evaluated": SUM},
        "group": {
            "campaigns": COUNT, "found": SUM, "scripts_evaluated": SUM,
            "coverage_keys": ("max",), "violating_scripts": SUM,
            "counterexamples": SUM, "replay_confirmed": SUM,
        },
        "must_hold": [("find", "found", "campaigns"),
                      ("clean", "violating_scripts", 0)],
    },
    "bounds": {
        "experiments": ("e21",), "by": ("by_scenario", "{scenario}"),
        "top": {"rows": COUNT, "timelines_checked": ("sum", "checked"),
                "all_sound": ("all", "sound")},
        "group": {"sound": ("all",), "checked": SUM, "R_us": ("max",),
                  "skipped_unachievable": SUM, "class_tightness": ("max",)},
        "must_hold": [(None, "all_sound", True), ("*", "sound", True)],
        "compare": {"class_tightness": ("lower", "sim")},
    },
    # The one host-time stream, one row per workload (docs/HACKING.md).
    "e2e": {
        "experiments": ("e23",), "by": ("by_workload", "{workload}"),
        "top": {"workloads": COUNT},
        "group": dict.fromkeys((
            "ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb",
            "ops_attempted", "ops_failed", "setup_spread",
            "half_split_ratio", "noisy"), ("max",)),
        "must_hold": [("*", "ops_failed", 0)],
        "compare": {"ops_per_s": ("higher", "wall"), **dict.fromkeys(
            ("op_p50_ms", "setup_s", "peak_rss_mb"), ("lower", "wall"))},
    },
}


def fold(op: str, values: list, ndigits=None):
    """Reduce one column's values; dict-valued columns fold per key."""
    if op in ("count", "all"):  # of every row: a missing flag is false
        return len(values) if op == "count" else all(values)
    values = [v for v in values if v is not None]
    if values and all(isinstance(v, dict) for v in values):
        return {key: fold(op, [v.get(key) for v in values], ndigits)
                for key in sorted(set().union(*values))}
    if op == "seen":
        return sorted(set(values))
    out = sum(values) if op == "sum" else (
        max if op == "max" else min)(values, default=None)
    return out if ndigits is None or out is None else round(out, ndigits)


def fold_rows(rows: list, metrics: dict) -> dict:
    out: dict = {}
    for metric, (op, *args) in metrics.items():
        if op == "ratio":
            num, den = (sum(out[m] for m in part) for part in args[:2])
            out[metric] = round(num / den, args[2]) if den else None
        else:
            column = args[0] if args else metric
            out[metric] = fold(op, [r.get(column) for r in rows], *args[1:])
    return out


def aggregate(stream: str, rows: list) -> dict:
    """One trajectory entry's measurements from a stream's rows, as
    :data:`STREAMS` says; ``{}`` when the stream produced no rows."""
    if not rows:
        return {}
    spec = STREAMS[stream]
    entry = fold_rows(rows, {**spec["top"],
                             "experiments_seen": ("seen", "experiment")})
    if "by" in spec:
        name, template = spec["by"]
        keys = [template.format_map(row) for row in rows]
        entry[name] = {
            key: fold_rows([r for r, k in zip(rows, keys) if k == key],
                           spec["group"]) for key in sorted(set(keys))}
    return entry


def write_json(path: str, payload: dict) -> None:
    """The one BENCH writer: sorted, indented, atomic (temp + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def append_run(stream: str, measurements: dict, results=RESULTS) -> bool:
    """Append one entry, stamped with what produced it, to the stream's
    ``BENCH_<stream>.json``; ``cores``, ``python`` and ``sweep`` are the
    facts ``bench_check`` wants equal before it compares two entries. A
    stream that produced no rows (``--only e7`` runs no model checker)
    appends nothing and leaves the file as it was: returns False."""
    if not measurements:
        return False
    path = os.path.join(results, f"BENCH_{stream}.json")
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)["runs"]
    smoke = os.environ.get("REPRO_SWEEP") == "smoke"
    runs.append({
        "git_sha": git_sha(),
        "date_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cores": os.cpu_count() or 1,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "sweep": "smoke" if smoke else "full",
        **measurements,
    })
    write_json(path, {"schema": SCHEMA, "runs": runs})
    return True


#: The longest E23 waits for the load the pooled shards left to fall,
#: and how often it looks.
QUIET_WAIT_S, QUIET_POLL_S = 120, 5


def wait_for_quiet() -> int:
    """Poll the 1-minute load average until it reads at most ``cores -
    1`` — above that, E23's measurement flags its runs ``noisy`` — for at
    most :data:`QUIET_WAIT_S`; print and return the seconds waited."""
    ceiling = (os.cpu_count() or 1) - 1
    waited = 0
    while os.getloadavg()[0] > ceiling and waited < QUIET_WAIT_S:
        time.sleep(QUIET_POLL_S)
        waited += QUIET_POLL_S
    print(f"waited {waited}s for the 1-minute load to fall to {ceiling} "
          f"(cap {QUIET_WAIT_S}s)")
    return waited


def run_shard(path: str, env: dict) -> dict:
    """One benchmark file under pytest, as its ``suite`` stream row."""
    rel = os.path.relpath(path, REPO)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", rel, "--benchmark-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=REPO, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return {"experiment": rel, "wall_s": round(wall, 3),
            "returncode": proc.returncode}


def select(only: str) -> list:
    """The benchmark files ``--only`` names: those whose ``eN`` (of
    ``test_eN_*.py``) is one of the comma-separated ids; all for ""."""
    ids = {n.strip() for n in only.split(",") if n.strip()}
    return [path for path in sorted(glob.glob(
        os.path.join(REPO, "benchmarks", "test_*.py")))
        if not ids or os.path.basename(path).split("_")[1] in ids]


def collate_report(only: str) -> int:
    sections, missing = [], []
    for name in ORDER:
        try:
            with open(os.path.join(RESULTS, f"{name}.txt")) as f:
                sections.append(f.read().rstrip("\n"))
        except FileNotFoundError:
            missing.append(name)
    report_path = os.path.join(RESULTS, "REPORT.txt")
    with open(report_path, "w") as f:
        f.write("Reproduction report - Fault Tolerance and the Five-Second "
                "Rule (HotOS XV, 2015)\n"
                "Generated by tools/run_experiments.py; see EXPERIMENTS.md "
                "for claim-by-claim analysis.\n"
                + "\n\n".join(sections) + "\n")
    print(f"report written to {report_path} ({len(sections)} experiments)")
    if missing:
        print(f"WARNING: missing results: {', '.join(missing)}",
              file=sys.stderr)
    # A filtered run legitimately regenerates only a subset.
    return 1 if missing and not only else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="benchmark files to run concurrently")
    parser.add_argument("--only", default="", metavar="IDS",
                        help="only the experiments e1,e7,... "
                             "(benchmarks/test_eN_*.py)")
    parser.add_argument("--skip-run", action="store_true",
                        help="collate existing results without re-running")
    parser.add_argument("--skip-verify", action="store_true",
                        help="skip the static verification pre-flight")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.skip_run:
        return collate_report(args.only)

    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")]))}
    for scenario in [] if args.skip_verify else VERIFY_SCENARIOS:
        print("verifying mode graph:", " ".join(scenario))
        proc = subprocess.run([sys.executable, "-m", "repro", "verify",
                               "--strict", *scenario], cwd=REPO, env=env)
        if proc.returncode != 0:
            sys.exit("static verification FAILED; refusing to benchmark "
                     "an unsound strategy")
    files = select(args.only)
    if not files:
        parser.error(f"no benchmark files match --only {args.only!r}")
    # The row streams are this run's scratch: start each one empty.
    os.makedirs(RESULTS, exist_ok=True)
    scratch = {stream: os.path.join(RESULTS, f"{stream}_stats.jsonl")
               for stream in STREAMS if stream != "suite"}
    for path in scratch.values():
        open(path, "w").close()
    print(f"running {len(files)} benchmark shards (jobs={args.jobs})...")
    start = time.perf_counter()
    # E23 measures host time: it runs alone, after the pool has quietened.
    pooled = [path for path in files if "test_e23_" not in path]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        shards = list(pool.map(lambda path: run_shard(path, env), pooled))
    alone = [path for path in files if path not in pooled]
    if alone:
        wait_for_quiet()
    shards += [run_shard(path, env) for path in alone]
    wall = time.perf_counter() - start
    rows = {"suite": shards}
    for stream, path in scratch.items():
        with open(path) as f:
            rows[stream] = [json.loads(line) for line in f]
    appended = [f"BENCH_{stream}.json" for stream in STREAMS
                if append_run(stream, aggregate(stream, rows[stream]))]
    print(f"suite: {wall:.3f}s wall over {len(files)} shards; entries "
          f"appended to {', '.join(appended)} (tracked: commit them to "
          f"extend the baselines)")
    failed = [s["experiment"] for s in shards if s["returncode"] != 0]
    if failed:
        sys.exit("benchmark shards failed: " + ", ".join(failed))
    return collate_report(args.only)


if __name__ == "__main__":
    sys.exit(main())

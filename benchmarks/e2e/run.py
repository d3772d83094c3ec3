#!/usr/bin/env python3
"""BENCH_e2e: four workloads, end-to-end and per-layer host-time metrics.

Two ways to call it, one code path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, as ``BENCHMARK.json`` registers it. The last line of
    standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (the end-to-end metrics untraced, the
    per-layer metrics traced).

``run.py [--seed 11] [--seconds S] [--trace] [--out FILE] [--smoke]``
    All four workloads one after another, every metric printed by name
    with its unit; ``--trace`` adds the traced run of each workload,
    ``--out`` writes the result document ``compare.py`` reads.

Every measurement happens in a fresh child process (``--role``), so
``setup_s`` and ``peak_rss_mb`` belong to one workload alone. Set-up is
repeated in extra set-up-only children and ``setup_s`` is their median.
Exits non-zero if any op fails its output check.
"""

import time

_STARTED_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import catalogue  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOAD_NAMES = ("sweep_batched_n15", "full_trace_n7", "cold_plan_f2",
                  "search_n4")
#: Set-up runs per untraced measurement (their median is ``setup_s``).
SETUP_REPEATS = 3
#: One invocation must end within 180 s; children are cut off before.
DEADLINE_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the result document (all-workload "
                             "mode) for compare.py")
    parser.add_argument("--smoke", action="store_true",
                        help="2 ops per workload, small probes, no "
                             "warm-up; goldens still checked")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json from this checkout")
    parser.add_argument("--role", choices=("measure", "setup", "golden"),
                        default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def default_seconds() -> float:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


# -------------------------------------------------------------- child

def child(args) -> int:
    sys.path.insert(0, SRC)
    import measure

    if args.role == "golden":
        doc = measure.golden_child(args.workload)
    else:
        doc = measure.run_child(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, args.role == "setup", _STARTED_NS)
    print(json.dumps(doc))
    return 0


# ------------------------------------------------------- orchestrator

def spawn(role: str, workload: str, args, trace: int,
          deadline: float) -> dict:
    """Run one child to its end and return the document it printed."""
    command = [sys.executable, os.path.abspath(__file__), "--role", role,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise SystemExit(f"{role} child for {workload} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, args, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    repeats = 1 if (trace or args.smoke) else SETUP_REPEATS
    setups = [spawn("setup", workload, args, trace, deadline)["setup_s"]
              for _ in range(repeats - 1)]
    doc = spawn("measure", workload, args, trace, deadline)
    setups.append(doc["end_to_end"]["setup_s"])
    doc["setup_samples_s"] = setups
    doc["end_to_end"]["setup_s"] = statistics.median(setups)
    return doc


def units():
    table = {name: unit for name, unit, _, _ in catalogue.END_TO_END}
    table.update({name: unit for name, unit, _ in catalogue.PER_LAYER})
    return table


def print_metrics(doc: dict, unit_of: dict) -> None:
    name = doc["workload"]
    print(f"# {name}  (op = {doc['op_is']})")
    for metric, value in doc["end_to_end"].items():
        print(f"{name}  {metric}  {value:.6g} {unit_of[metric]}")
    diag = doc["diagnostics"]
    tail = (f"p{diag['op_tail_percentile']} = {diag['op_tail_ms']:.4g} ms"
            if diag["op_tail_percentile"] else "none")
    print(f"{name}  op time over {diag['op_samples']} samples; highest "
          f"percentile with 10 samples beyond it: {tail} (diagnostic)")
    print(f"{name}  ops_attempted  {doc['ops_attempted']} count")
    print(f"{name}  ops_failed  {doc['ops_failed']} count")
    for metric, value in doc.get("per_layer", {}).items():
        print(f"{name}  {metric}  {value:.6g} {unit_of[metric]}")
    for problem in doc["problems"]:
        print(f"{name}  PROBLEM  {problem}")
    if doc["missing_wrap_targets"]:
        print(f"{name}  missing wrap targets: "
              f"{', '.join(doc['missing_wrap_targets'])}")
    if doc["noisy"]:
        print(f"{name}  NOISY: half_split_ratio "
              f"{diag['half_split_ratio']:.3f}, load at start "
              f"{doc['host']['load_start']:.2f}")


def correct(doc: dict) -> bool:
    return doc["ops_failed"] == 0 and not doc["problems"]


def contract_line(doc: dict, unit_of: dict, trace: int) -> str:
    metrics = doc["per_layer"] if trace else doc["end_to_end"]
    return json.dumps({
        "correct": correct(doc),
        "attempted": doc["ops_attempted"],
        "failed": doc["ops_failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    })


def write_golden(args) -> int:
    deadline = time.monotonic() + 3600.0
    golden = {name: spawn("golden", name, args, 0, deadline)
              for name in WORKLOAD_NAMES}
    path = os.path.join(HERE, "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in golden.values())} goldens to {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.role is not None:
        return child(args)
    if args.write_golden:
        return write_golden(args)
    unit_of = units()

    if args.workload is not None:
        doc = run_workload(args.workload, args, args.trace)
        print_metrics(doc, unit_of)
        print(contract_line(doc, unit_of, args.trace))
        return 0 if correct(doc) else 1

    result = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "workloads": {}}
    ok = True
    for workload in WORKLOAD_NAMES:
        doc = run_workload(workload, args, 0)
        if args.trace:
            traced = run_workload(workload, args, 1)
            doc["per_layer"] = traced["per_layer"]
            doc["traced"] = {k: traced[k] for k in (
                "ops_attempted", "ops_failed", "problems", "ops_traced",
                "fine_spans_dropped", "missing_wrap_targets")}
            doc["ops_attempted"] += traced["ops_attempted"]
            doc["ops_failed"] += traced["ops_failed"]
            doc["problems"] += traced["problems"]
        print_metrics(doc, unit_of)
        ok = ok and correct(doc)
        result["workloads"][workload] = doc
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"result written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""E23 — Host time, end to end: the four ``BENCHMARK.json`` workloads.

Runs ``benchmarks/e2e/run.py --seed 11`` (``--smoke`` under
``REPRO_SWEEP=smoke``) and records one ``e2e`` row per workload into the
one host-time trajectory, ``BENCH_e2e.json`` (docs/HACKING.md,
"Benchmark pipeline"). ``setup_spread`` is ``own_spread`` of
``benchmarks/e2e/compare.py``: a row whose spread exceeds its metric's
bound is unresolved and no baseline. Every op must pass its check.
"""

import json
import os
import subprocess
import sys

from harness import one_shot, record, smoke, write_result
from repro.analysis import format_table

E2E = os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e")
sys.path.insert(0, E2E)
import compare  # noqa: E402  (benchmarks/e2e/compare.py)

METRICS = ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")
COLUMNS = ("workload", *METRICS, "setup_spread", "half_split_ratio",
           "noisy", "ops_attempted", "ops_failed")


def run_experiment(out_path: str) -> dict:
    """``run.py``'s result document, one entry per workload."""
    subprocess.run([sys.executable, os.path.join(E2E, "run.py"), "--seed",
                    "11", "--out", out_path] + ["--smoke"] * smoke())
    with open(out_path) as f:
        return json.load(f)["workloads"]


def test_e23_host_time(benchmark, tmp_path):
    docs = one_shot(benchmark,
                    lambda: run_experiment(str(tmp_path / "e2e.json")))
    rows = [{"workload": name,
             **{m: round(doc["end_to_end"][m], 4) for m in METRICS},
             "setup_spread": round(compare.own_spread(doc, "setup_s"), 3),
             "half_split_ratio": round(
                 doc["diagnostics"]["half_split_ratio"], 3),
             "noisy": doc["noisy"], "ops_attempted": doc["ops_attempted"],
             "ops_failed": doc["ops_failed"]} for name, doc in docs.items()]
    for row in rows:
        record("e2e", row, label="e23_host_time")
    write_result("e23_host_time", format_table(
        "E23: host time of the BENCHMARK.json workloads (run.py --seed 11"
        f"{' --smoke' * smoke()}; setup_spread or |half_split_ratio - 1| "
        "above 0.25: unresolved)",
        COLUMNS, [[row[c] for c in COLUMNS] for row in rows]))
    assert len(docs) == 4
    for name, doc in docs.items():
        assert doc["ops_failed"] == 0 and not doc["problems"], (
            name, doc["problems"])

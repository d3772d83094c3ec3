"""``tools/ab_ops.py``: the A/A control on the workload that executes no
event ends with the one JSON line a claiming change quotes."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_aa_control_ends_with_one_json_summary():
    out = subprocess.run(
        [sys.executable, os.path.join("tools", "ab_ops.py"), REPO, REPO,
         "cold_plan_f2", "4", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len([line for line in lines if line.startswith("pair ")]) == 4
    summary = json.loads(lines[-1])
    assert set(summary) == {"workload", "pairs", "median_ab", "quartiles",
                            "summed_ab", "b_wins", "mismatches",
                            "peak_rss_mb"}
    assert (summary["workload"], summary["pairs"]) == ("cold_plan_f2", 4)
    assert summary["mismatches"] == 0 and 0 <= summary["b_wins"] <= 4
    q1, q3 = summary["quartiles"]
    assert 0 < q1 <= summary["median_ab"] <= q3
    assert summary["peak_rss_mb"]["A"] > 0 and summary["peak_rss_mb"]["B"] > 0

"""``tools/sample_ops.py``: the SIGPROF sampler over a benchmark
workload's ops, run briefly on the workload that executes no event."""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW = re.compile(r"\s*(\d+\.\d\d)\s+(\d+\.\d\d)  (\S+:\S+)")


def test_sampler_prints_self_and_inclusive_shares():
    out = subprocess.run(
        [sys.executable, os.path.join("tools", "sample_ops.py"),
         "cold_plan_f2", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    header = re.match(r"cold_plan_f2: (\d+) samples over (\d+) ops, "
                      r"(\d+\.\d) ms per op ", lines[0])
    assert header and int(header[1]) > 0 and int(header[2]) > 0
    assert float(header[3]) > 0
    by_self = lines.index("by self share")
    by_inclusive = lines.index("by inclusive share")
    tables = (lines[by_self + 2:by_inclusive - 1],
              lines[by_inclusive + 2:])
    for rows in tables:
        assert rows
        for row in rows:
            match = ROW.fullmatch(row)
            assert match, row
            assert float(match[1]) <= float(match[2]) <= 100.0
    self_shares = [float(ROW.fullmatch(r)[1]) for r in tables[0]]
    assert self_shares == sorted(self_shares, reverse=True)
    assert sum(self_shares) <= 100.01
    # Every sample lies inside an op, so the op itself is at 100 %.
    top = ROW.fullmatch(tables[1][0])
    assert top[3] == "workloads:ColdPlanF2.op" and top[2] == "100.00"


def test_sampler_prints_the_rows_it_is_asked_for():
    out = subprocess.run(
        [sys.executable, os.path.join("tools", "sample_ops.py"),
         "cold_plan_f2", "1", "3"],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    by_self = lines.index("by self share")
    by_inclusive = lines.index("by inclusive share")
    assert len(lines[by_self + 2:by_inclusive - 1]) == 3
    assert len(lines[by_inclusive + 2:]) == 3

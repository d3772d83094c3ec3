"""``tools/ab_ops.py``: the A/A control on the workload that executes no
event ends with the one JSON line a claiming change quotes, and a side
named by a git revision is extracted without touching the checkout."""

import json
import os
import subprocess
import sys

import pytest

from tools.ab_ops import extract

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


def test_a_revision_is_extracted_without_touching_the_checkout(tmp_path):
    """``A_ROOT`` / ``B_ROOT`` may name a git revision: its tree is
    written under the scratch directory by ``git archive``; an unknown
    revision exits with one line."""
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "marker.py").write_text("OLD = 1\n")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                        "-c", "user.email=t@example.com", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "marker.py")
    git("commit", "-q", "-m", "old")
    (repo / "marker.py").write_text("NEW = 1\n")
    tree = extract(str(repo), "HEAD", str(tmp_path / "A-tree"))
    assert (tmp_path / "A-tree" / "marker.py").read_text() == "OLD = 1\n"
    assert tree == str(tmp_path / "A-tree")
    assert (repo / "marker.py").read_text() == "NEW = 1\n"
    with pytest.raises(SystemExit, match="neither a directory nor a git "
                                         "revision"):
        extract(str(repo), "no-such-rev", str(tmp_path / "B-tree"))

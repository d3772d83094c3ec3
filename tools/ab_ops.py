#!/usr/bin/env python3
"""Op-level alternating A/B of one ``benchmarks/e2e`` workload.

Whole back-to-back runs of *identical* code differ by tens of percent on
a shared host (docs/HACKING.md, "Measuring a hot-path change"), so a
ratio between two checkouts is taken op by op instead: two persistent
child processes, one per checkout, each set up once, then the same op
input is run in A and in B in turn, alternating which goes first. Every
pair also compares the two ops' observed outputs, so a speed-up that
changed a fingerprint shows up as a mismatch, not as a win.

Usage:  python tools/ab_ops.py A_ROOT B_ROOT WORKLOAD [PAIRS] [WARMUP]

``A_ROOT`` / ``B_ROOT`` are checkouts of this repository, or git
revisions of it (``93ea48d``, ``HEAD~1``), which are extracted with
``git archive`` into the run's scratch directory, leaving the working
tree untouched; the ratio printed is A's time over B's, so > 1 means B
is faster. ``A_ROOT == B_ROOT`` is the
A/A control. When its stdin closes, each child reports its peak RSS
(``ru_maxrss``, MiB, as ``benchmarks/e2e`` measures ``peak_rss_mb``).
The last line is one JSON object (median A/B, its quartiles, summed-time
A/B, pairs B won, output mismatches, each side's peak RSS), which a
claiming change quotes for A/B and for the A/A control.
"""

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(repo: str, revision: str, dest: str) -> str:
    """The tree of ``revision`` in the git repository ``repo``, written
    under ``dest`` with ``git archive``; exits with one line when
    ``revision`` names nothing."""
    archive = dest + ".tar"
    made = subprocess.run(["git", "-C", repo, "archive", "-o", archive,
                           revision], capture_output=True, text=True)
    if made.returncode:
        sys.exit(f"ab_ops.py: {revision!r} is neither a directory nor a "
                 f"git revision: {made.stderr.strip()}")
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    os.remove(archive)
    return dest


def child(root: str, name: str, out_dir: str) -> None:
    """Serve ops of ``name`` from the checkout at ``root``: one
    ``case run_seed offset_us`` line in, one JSON line out."""
    sys.path[:0] = [os.path.join(root, "src"),
                    os.path.join(root, "benchmarks", "e2e")]
    import repro
    import workloads
    assert os.path.abspath(repro.__file__).startswith(
        os.path.abspath(root)), repro.__file__
    workload = workloads.WORKLOADS[name](out_dir)
    workload.setup()
    pool = [[i.case, i.run_seed, i.offset_us] for i in workload.pool()]
    print(json.dumps({"pool": pool}), flush=True)
    for line in sys.stdin:
        case, seed, offset = line.split()
        inp = workloads.OpInput(case, int(seed), int(offset))
        workload.reset()
        started = time.perf_counter()
        observed, detail = workload.op(inp)
        elapsed = time.perf_counter() - started
        print(json.dumps({
            "s": elapsed, "sha": workloads.sha(observed),
            "problems": workload.check(inp, observed, detail)}), flush=True)
    print(json.dumps({"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024}), flush=True)


def main(a_root: str, b_root: str, name: str, pairs: int = 16,
         warmup: int = 2) -> int:
    scratch = tempfile.mkdtemp(prefix="ab_ops-")
    sides = []
    for label, root in (("A", a_root), ("B", b_root)):
        out_dir = os.path.join(scratch, label)
        os.makedirs(out_dir)
        if not os.path.isdir(root):
            root = extract(REPO, root, os.path.join(scratch, label + "-tree"))
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child",
             os.path.abspath(root), name, out_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        pool = json.loads(proc.stdout.readline())["pool"]
        sides.append(proc)
    random.Random(7).shuffle(pool)

    def run(proc, inp) -> dict:
        proc.stdin.write("{} {} {}\n".format(*inp))
        proc.stdin.flush()
        return json.loads(proc.stdout.readline())

    a_proc, b_proc = sides
    ratios, a_s, b_s, mismatches = [], 0.0, 0.0, 0
    for i in range(warmup + pairs):
        inp = pool[i % len(pool)]
        order = (a_proc, b_proc) if i % 2 == 0 else (b_proc, a_proc)
        results = {proc: run(proc, inp) for proc in order}
        a, b = results[a_proc], results[b_proc]
        if a["sha"] != b["sha"] or a["problems"] or b["problems"]:
            mismatches += 1
            print("MISMATCH", inp, a, b)
        if i < warmup:
            continue
        a_s, b_s = a_s + a["s"], b_s + b["s"]
        ratios.append(a["s"] / b["s"])
        print(f"pair {i - warmup:2d} {inp[0]:>20s}  A {a['s'] * 1e3:8.1f} ms"
              f"  B {b['s'] * 1e3:8.1f} ms  A/B {ratios[-1]:.3f}", flush=True)
    peaks = []
    for proc in sides:
        proc.stdin.close()
        peaks.append(json.loads(proc.stdout.readline())["peak_rss_mb"])
        proc.wait()
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "workload": name, "pairs": len(ratios),
        "median_ab": round(statistics.median(ratios), 3),
        "quartiles": [round(q, 3) for q in statistics.quantiles(
            ratios, n=4)[::2]],
        "summed_ab": round(a_s / b_s, 3),
        "b_wins": sum(r > 1 for r in ratios), "mismatches": mismatches,
        "peak_rss_mb": {"A": round(peaks[0], 1), "B": round(peaks[1], 1)}}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:5])
    else:
        a_root, b_root, name, *rest = sys.argv[1:]
        sys.exit(main(a_root, b_root, name, *(int(v) for v in rest)))

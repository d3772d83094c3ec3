"""One workload in one fresh process: set-up, timed rounds, checks.

``run.py`` starts this in a child process per workload (and per
set-up repetition). The flow is: import the whole program, install the
stage-boundary spans, run the layer probes, load the goldens, build and
``prepare()`` what the workload needs, run a few untimed warm-up
ops — all of that is ``setup_s`` — then measure whole rounds
for the requested time. A traced run splits its time: an untraced
phase, then the same ops again with the fine-grained spans installed;
simulated-side counts of the two phases must agree op for op.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional

import catalogue
import layers
import probes
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")

#: Share of a traced run's time spent in the untraced phase.
UNTRACED_SHARE = 0.4
#: Untimed ops at the end of set-up (lazy imports, derived-key and
#: prepare memos); the first cases of the workload, whatever the seed.
WARMUP_OPS = 2
#: A run measures at least this many rounds, so its two halves can be
#: compared (``bench.half_split_ratio``).
MIN_ROUNDS = 2


def load_golden() -> Dict[str, Dict[str, dict]]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_problem(inp, expected: dict, observed: dict) -> Optional[str]:
    if expected == observed:
        return None
    fields = sorted(k for k in set(expected) | set(observed)
                    if expected.get(k) != observed.get(k))
    return f"{inp.key}: differs from golden in {', '.join(fields)}"


def run_op(workload, tracer: Tracer, inp, round_index: int,
           golden: Dict[str, dict], digests: Dict[str, str]) -> dict:
    """Execute and check one op; returns its record."""
    workload.reset()
    tracer.begin_op()
    start = time.perf_counter_ns()
    try:
        observed, detail = workload.op(inp)
        error = None
    except Exception as exc:  # the op failed; its time still counts
        observed, detail, error = None, None, exc
    wall_ns = time.perf_counter_ns() - start
    totals, counters = tracer.end_op()

    if error is not None:
        problems = [f"{inp.key}: raised {error!r}"]
    else:
        problems = workload.check(inp, observed, detail)
        expected = golden.get(inp.key)
        if expected is not None:
            mismatch = _golden_problem(inp, expected, observed)
            if mismatch:
                problems.append(mismatch)
        digest = workloads.sha(observed)
        if digests.setdefault(inp.key, digest) != digest:
            problems.append(f"{inp.key}: same input, different output "
                            f"than earlier in this run")
    return {"key": inp.key, "round": round_index, "wall_ns": wall_ns,
            "totals": totals, "counters": counters, "problems": problems}


def timed_rounds(workload, tracer: Tracer, rounds: Iterator[list],
                 golden: Dict[str, dict], seconds: float,
                 max_rounds: Optional[int] = None,
                 max_ops: Optional[int] = None) -> List[dict]:
    """Measure whole rounds until ``seconds`` is nearer than the next
    round would overshoot it (or ``max_rounds`` / ``max_ops``)."""
    records: List[dict] = []
    digests: Dict[str, str] = {}
    start = time.perf_counter()
    done = 0
    while True:
        for inp in next(rounds):
            records.append(run_op(workload, tracer, inp, done, golden,
                                  digests))
            if max_ops is not None and len(records) >= max_ops:
                return records
        done += 1
        if max_rounds is not None and done >= max_rounds:
            return records
        elapsed = time.perf_counter() - start
        if done >= MIN_ROUNDS and elapsed + 0.5 * elapsed / done >= seconds:
            return records


def host_facts() -> dict:
    root = os.path.dirname(os.path.dirname(HERE))
    try:
        # The ceiling keeps git from looking above the checkout when the
        # checkout is not a repository (sha is then None).
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": platform.platform()}


def run_child(name: str, seed: int, seconds: float, trace: bool,
              smoke: bool, setup_only: bool, started_ns: int) -> dict:
    """The child-process body; ``started_ns`` is ``perf_counter_ns`` at
    the top of ``run.py`` in this process."""
    load_start = os.getloadavg()[0]
    tracer = Tracer()
    layers.import_program()
    missing = layers.install(tracer, fine=False)
    probe_values = probes.run_probes(seed, scale=0.05 if smoke else 1.0)
    golden = load_golden().get(name, {})
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[name](OUT_DIR)
    workload.setup()
    if not smoke:
        # Warm-up inputs do not depend on --seed, so set-up repeats.
        warmup = iter([[workloads.OpInput(case, workload.run_seeds[0],
                                          workload.offsets_us[0])
                        for case in workload.cases[:WARMUP_OPS]]])
        failed = [p for op in timed_rounds(workload, tracer, warmup, golden,
                                           0.0, max_rounds=1)
                  for p in op["problems"]]
        if failed:
            raise SystemExit(f"warm-up op failed: {failed[0]}")
    setup_s = (time.perf_counter_ns() - started_ns) / 1e9
    if setup_only:
        return {"workload": name, "setup_s": setup_s}

    max_ops = 2 if smoke else None
    untraced_s = seconds * UNTRACED_SHARE if trace else seconds
    untraced = timed_rounds(workload, tracer, workload.rounds(seed), golden,
                            untraced_s, max_ops=max_ops)
    records = list(untraced)
    problems = [p for op in untraced for p in op["problems"]]
    doc = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "op_is": workload.op_is,
        "rounds": untraced[-1]["round"] + 1,
    }

    if trace:
        missing += layers.install(tracer, fine=True)
        traced = timed_rounds(
            workload, tracer, workload.rounds(seed), golden,
            seconds - untraced_s, max_rounds=doc["rounds"], max_ops=max_ops)
        records += traced
        problems += [p for op in traced for p in op["problems"]]
        for before, after in zip(untraced, traced):
            if before["counters"] != after["counters"]:
                problems.append(
                    f"{before['key']}: simulated-side counts changed "
                    f"under tracing")
                break
        doc["per_layer"] = catalogue.derive_per_layer(
            untraced, traced, len(workload.cases), probe_values)
        doc["ops_traced"] = len(traced)
        doc["fine_spans_dropped"] = tracer.fine_spans_dropped
        tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{name}.jsonl"))

    tail = catalogue.percentile_with_tail(
        [op["wall_ns"] / 1e6 for op in untraced])
    half_split = catalogue.half_split_ratio(untraced)
    load_end = os.getloadavg()[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc.update({
        "end_to_end": catalogue.derive_end_to_end(untraced, setup_s,
                                                  peak_rss_mb),
        "stage_ms": {
            span: catalogue.incl_ms(untraced, span)
            for span in sorted({s for op in untraced for s in op["totals"]})
        },
        "diagnostics": {
            "op_samples": len(untraced),
            "op_tail_percentile": tail[0] if tail else None,
            "op_tail_ms": tail[1] if tail else None,
            "half_split_ratio": half_split,
        },
        "ops_attempted": len(records),
        "ops_failed": sum(1 for op in records if op["problems"]),
        "problems": problems[:10],
        "missing_wrap_targets": missing,
        "host": dict(host_facts(), load_start=load_start,
                     load_end=load_end),
        # Numbers from a busy box are never silently compared.
        "noisy": (not 0.9 <= half_split <= 1.1
                  or load_start > (os.cpu_count() or 1) - 1),
    })
    return doc


def golden_child(name: str) -> dict:
    """Run every input of the workload's pool once; the outputs are the
    new goldens. Invariants must hold for an output to be recorded."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[name](OUT_DIR)
    workload.setup()
    out = {}
    for inp in workload.pool():
        workload.reset()
        observed, detail = workload.op(inp)
        problems = workload.check(inp, observed, detail)
        if problems:
            raise SystemExit(f"cannot record golden: {problems[0]}")
        out[inp.key] = observed
    return out

#!/usr/bin/env python3
"""Statistical profile of one ``benchmarks/e2e`` workload's ops.

A ``SIGPROF`` interval timer (``setitimer(ITIMER_PROF)``) interrupts the
process every millisecond of CPU time; the handler charges the
interrupted frame's function one *self* sample and every distinct
function on its stack one *inclusive* sample. Unlike cProfile, nothing
is paid per call, so the many small functions on a search event's path
(a heap push, an HMAC, a value-class ``__init__``) keep their real
weight instead of their instrumented one.

The workload is set up and one round of ops is run untimed first
(imports, caches and the interpreter's specialisation warm up), then
whole rounds of ops are sampled until ``SECONDS`` of wall time have
passed. Shares are of all samples taken inside the ops.

``ROWS`` (default 30) is how many rows each table prints.

Usage:  python tools/sample_ops.py WORKLOAD [SECONDS [ROWS]]
"""

import os
import signal
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: CPU seconds between samples.
INTERVAL_S = 0.001
#: Rows printed per table, unless the command line names another count.
ROWS = 30


def _label(code, module: str) -> str:
    return f"{module}:{getattr(code, 'co_qualname', code.co_name)}"


def sample(name: str, seconds: float, out_dir: str):
    """``(self, inclusive, samples, ops, op_s)`` for ``seconds`` of
    ops; ``op_s`` is the ops' summed wall time."""
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "benchmarks", "e2e")]
    import workloads

    workload = workloads.WORKLOADS[name](out_dir)
    workload.setup()
    rounds = workload.rounds(seed=11)
    for inp in next(rounds):  # untimed warm-up round
        workload.reset()
        workload.op(inp)

    own = __name__
    self_counts: Counter = Counter()
    inclusive: Counter = Counter()
    taken = 0

    def on_tick(_signum, frame) -> None:
        nonlocal taken
        stack = []
        while frame is not None:
            module = frame.f_globals.get("__name__", "?")
            if module != own:
                stack.append(_label(frame.f_code, module))
            frame = frame.f_back
        if not stack:
            return  # the sampler's own loop, between two ops
        taken += 1
        self_counts[stack[0]] += 1
        inclusive.update(set(stack))

    ops = 0
    op_s = 0.0
    signal.signal(signal.SIGPROF, on_tick)
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            for inp in next(rounds):
                workload.reset()
                started = time.perf_counter()
                signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
                workload.op(inp)
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
                op_s += time.perf_counter() - started
                ops += 1
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
    return self_counts, inclusive, taken, ops, op_s


def _table(title: str, counts: Counter, self_counts: Counter,
           inclusive: Counter, taken: int, rows: int) -> None:
    print(f"\n{title}")
    print(f"{'self%':>7} {'incl%':>7}  module:function")
    for label, _ in counts.most_common(rows):
        print(f"{100 * self_counts[label] / taken:7.2f} "
              f"{100 * inclusive[label] / taken:7.2f}  {label}")


def main(name: str, seconds: float = 10.0, rows: int = ROWS) -> int:
    with tempfile.TemporaryDirectory(prefix="sample_ops-") as out_dir:
        self_counts, inclusive, taken, ops, op_s = sample(
            name, seconds, out_dir)
    print(f"{name}: {taken} samples over {ops} ops, "
          f"{1e3 * op_s / max(ops, 1):.1f} ms per op "
          f"({INTERVAL_S * 1e3:g} ms CPU interval requested)")
    if not taken:
        return 1
    _table("by self share", self_counts, self_counts, inclusive, taken,
           rows)
    _table("by inclusive share", inclusive, self_counts, inclusive, taken,
           rows)
    return 0


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 4:
        sys.exit(__doc__.strip().splitlines()[-1])
    sys.exit(main(sys.argv[1], *(float(v) for v in sys.argv[2:3]),
                  *(int(v) for v in sys.argv[3:])))

"""Layer probes: the heap, trace and HMAC floors, measured directly.

Each probe drives one layer through its public API with a fixed amount
of seeded work, inside the benchmark's set-up, and reports host
nanoseconds per operation. They exist so the floor under a workload's
``run_ms`` (how much of it is heap push/pop, trace append or HMAC that
no restructuring above can remove) is known before the program has
tracing of its own.

Work is done in batches of ``BATCH`` items that are dropped before the
next batch, so the probes stay far below the workloads' own footprint
and ``peak_rss_mb`` belongs to the workload.
"""

from __future__ import annotations

import random
import time
from typing import Dict

from repro.crypto.authenticator import AuthenticatedStatement
from repro.crypto.signatures import KeyDirectory, canonical_bytes
from repro.sim.engine import Simulator
from repro.sim.trace import MessageSent, Trace

HEAP_EVENTS = 300_000
TRACE_RECORDS = 300_000
SIGNATURES = 60_000
STATEMENTS = 40_000
#: Items per batch; for the heap probe also the pending-event depth,
#: the order of a run's own, so the heap is as deep as the one the
#: workloads pay for.
BATCH = 1_000


def _noop() -> None:
    pass


def probe_heap(seed: int, events: int) -> float:
    """ns per event: ``Simulator(fast_heap=True).schedule`` plus the
    ``run_until`` pop and dispatch of a no-op, at seeded times."""
    rng = random.Random(seed)
    sim = Simulator(seed=seed, fast_heap=True)
    window_us = 10 * BATCH
    offsets = [rng.randrange(window_us) for _ in range(BATCH)]
    batches = max(1, events // BATCH)
    start = time.perf_counter_ns()
    for _ in range(batches):
        opens = sim.now
        for offset in offsets:
            sim.schedule(opens + offset, _noop)
        sim.run_until(opens + window_us)
    elapsed = time.perf_counter_ns() - start
    if sim.events_executed != batches * BATCH:
        raise RuntimeError("heap probe lost events")
    return elapsed / (batches * BATCH)


def probe_trace_record(records: int) -> float:
    """ns per hop event: build one ``MessageSent`` and ``Trace.record``
    it in ``full`` mode, as the transmit path does."""
    batches = max(1, records // BATCH)
    start = time.perf_counter_ns()
    for _ in range(batches):
        trace = Trace(mode="full")
        for i in range(BATCH):
            trace.record(MessageSent(time=i, src="n0", dst="n1",
                                     kind="data", size_bits=1024,
                                     flow="f"))
        if len(trace) != BATCH:
            raise RuntimeError("trace probe lost events")
    return (time.perf_counter_ns() - start) / (batches * BATCH)


def probe_crypto(seed: int, signatures: int, statements: int
                 ) -> Dict[str, float]:
    """ns per ``sign_bytes``, and per ``verify_statement`` on a memo
    miss (HMAC recomputed) and on a memo hit."""
    directory = KeyDirectory(master_seed=seed, verify_memo=True)
    directory.register("n0")
    payloads = [{"flow": "f", "period": i, "value": seed}
                for i in range(BATCH)]
    canonical = [canonical_bytes(p) for p in payloads]
    batches = max(1, signatures // BATCH)
    start = time.perf_counter_ns()
    for _ in range(batches):
        for payload in canonical:
            directory.sign_bytes("n0", payload)
    sign_ns = (time.perf_counter_ns() - start) / (batches * BATCH)

    signed = [AuthenticatedStatement.make(directory, "n0", p)
              for p in payloads]
    batches = max(1, statements // BATCH)
    miss_ns = hit_ns = 0
    for _ in range(batches):
        directory.begin_run()  # empties the memo: every verify misses
        start = time.perf_counter_ns()
        for stmt in signed:
            directory.verify_statement(stmt)
        middle = time.perf_counter_ns()
        for stmt in signed:
            directory.verify_statement(stmt)
        hit_ns += time.perf_counter_ns() - middle
        miss_ns += middle - start
        memo = directory.verify_memo
        if memo is not None and (memo.hits, memo.misses) != (BATCH, BATCH):
            raise RuntimeError("crypto probe: memo did not miss then hit")
    return {"sign_ns": sign_ns,
            "verify_ns": miss_ns / (batches * BATCH),
            "verify_hit_ns": hit_ns / (batches * BATCH)}


def run_probes(seed: int, scale: float = 1.0) -> Dict[str, float]:
    """All probes; ``scale`` shrinks the work for the smoke mode."""
    crypto = probe_crypto(seed, int(SIGNATURES * scale),
                          int(STATEMENTS * scale))
    return {
        "sim.probe.heap_ns_per_event":
            probe_heap(seed, int(HEAP_EVENTS * scale)),
        "sim.probe.trace_record_ns":
            probe_trace_record(int(TRACE_RECORDS * scale)),
        "crypto.probe.sign_ns": crypto["sign_ns"],
        "crypto.probe.verify_ns": crypto["verify_ns"],
        "crypto.probe.verify_hit_ns": crypto["verify_hit_ns"],
    }

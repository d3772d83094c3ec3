"""Host-time spans recorded from outside the program under test.

A :class:`Tracer` keeps one stack of open spans (the benchmark is one
thread) and, per op, the totals every layer metric is derived from:
calls, inclusive time and *self time* — a span's duration minus the
part of it its child spans cover. Closed spans stay in memory as
``(id, name, start_ns, end_ns, parent_id, op)`` tuples and are written
out as JSON lines when the workload ends; fine-grained spans beyond
``fine_span_cap`` are still counted in the totals but not retained, so
a traced run cannot grow without bound.

:func:`wrap` turns any callable into one that opens a span around each
call; ``layers.py`` uses it to patch the program's public functions and
class attributes.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self, fine_span_cap: int = 50_000) -> None:
        #: Open spans, innermost last: [name, start_ns, child_ns, id].
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.fine_span_cap = fine_span_cap
        self.fine_spans_kept = 0
        self.fine_spans_dropped = 0
        #: Per-op span totals: name -> [calls, inclusive_ns, self_ns].
        self.totals: Dict[str, List[int]] = {}
        #: Per-op simulated-side counts, filled by the layer observers.
        self.counters: Dict[str, int] = {}
        #: The running op's identifier, shared by all its spans; ops are
        #: numbered in execution order across warm-up and both phases.
        self.op: Optional[int] = None
        self._ops_begun = 0
        self._next_id = 0

    def begin_op(self) -> None:
        self.op = self._ops_begun
        self._ops_begun += 1
        self.totals = {}
        self.counters = {}

    def end_op(self) -> tuple:
        """The finished op's ``(totals, counters)``."""
        self.op = None
        return self.totals, self.counters

    def open(self, name: str) -> list:
        frame = [name, time.perf_counter_ns(), 0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, fine: bool = False) -> None:
        end = time.perf_counter_ns()
        stack = self.stack
        stack.pop()
        name, start, child_ns, span_id = frame
        duration = end - start
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        if fine:
            if self.fine_spans_kept >= self.fine_span_cap:
                self.fine_spans_dropped += 1
                return
            self.fine_spans_kept += 1
        self.spans.append((span_id, name, start, end, parent, self.op))

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` currently open?"""
        return any(frame[0] == name for frame in self.stack)

    def add(self, counter: str, value: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "spans": len(self.spans),
                "fine_spans_dropped": self.fine_spans_dropped,
            }) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op,
                }) + "\n")


def wrap(fn: Callable, name: str, tracer: Tracer, fine: bool = False,
         observe: Optional[Callable] = None) -> Callable:
    """``fn`` with a span called ``name`` around every call.

    ``observe(tracer, args, result)`` runs after a successful call,
    outside the span, to read simulated-side counts off the arguments
    and the result.
    """
    open_span = tracer.open
    close_span = tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(frame, fine)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return traced

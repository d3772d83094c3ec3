"""Wall-clock timing for the *offline* perf layer.

Everything simulated in this library runs on the engine's integer-µs
clock, and the determinism linter (``tools/lint``) bans wall-clock reads
in the restricted layers — including ``repro/perf/``. This module is the
single sanctioned exception (see ``EXEMPT_SUFFIXES`` in
``tools.lint.rules``): offline planning and the experiment runner are
host-side computations whose *cost* is the thing being measured, so
``time.perf_counter`` is the correct instrument here, exactly as it is
in the E7 benchmark.

Keep every wall-clock read in this file. Code elsewhere in the perf
layer takes a :class:`Stopwatch` (or a plain float) so it stays lintable.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict


class Stopwatch:
    """Cumulative wall-clock timer.

    >>> watch = Stopwatch()
    >>> ... work ...
    >>> watch.elapsed_s()
    0.42
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed_s(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start


def append_jsonl(path: str, record: Dict[str, Any]) -> None:
    """Append one JSON record to a ``.jsonl`` stats file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

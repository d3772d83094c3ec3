"""Performance layer: offline planning speed and the online engine's
hot paths.

Nothing in here changes *what* the planner or runtime computes — only
how fast the artifact is produced and whether work is recomputed at all:

* :class:`StrategyCache` / :func:`strategy_cache_key` — content-keyed
  on-disk reuse of finished strategies (only the end-to-end benchmark
  harness still configures one);
* :mod:`repro.perf.batchcore` — the hop runtime every system crosses
  links through (unicast sends and vectorised fan-outs) and the sweep
  sibling of a prepared system;
* :mod:`repro.perf.pool` — the one worker pool (mc cells, fuzz
  generations, sweeps) and the one multi-seed sweep, :func:`run_sweep`;
* :mod:`repro.perf.timing` — the one sanctioned wall-clock module (the
  determinism lint restricts ``repro/perf/`` and exempts only it).

See ``docs/PERFORMANCE.md`` for the architecture and the determinism
guarantees each piece preserves.
"""

from .batchcore import BatchRuntime, sibling_system
from .cache import StrategyCache, strategy_cache_key
from .pool import WorkerPool, run_sweep

__all__ = [
    "BatchRuntime",
    "sibling_system",
    "StrategyCache",
    "strategy_cache_key",
    "WorkerPool",
    "run_sweep",
]

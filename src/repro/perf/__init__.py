"""Performance layer: offline planning speed and the online engine's
hot paths.

Nothing in here changes *what* the planner or runtime computes — only
how fast the artifact is produced and whether work is recomputed at all:

* :class:`StrategyCache` / :func:`strategy_cache_key` — content-keyed
  on-disk reuse of finished strategies;
* :mod:`repro.perf.batchcore` — the hop runtime every system crosses
  links through (unicast sends and vectorised fan-outs) and multi-seed
  sweep execution;
* :mod:`repro.perf.pool` — the one worker pool (mc cells, fuzz
  generations, sweeps) and the geo-scale multi-seed pool sweep;
* :mod:`repro.perf.timing` — the one sanctioned wall-clock module (the
  determinism lint restricts ``repro/perf/`` and exempts only it).

See ``docs/PERFORMANCE.md`` for the architecture and the determinism
guarantees each piece preserves.
"""

from ..crypto.memo import VerifyMemo
from ..sim.trace import trace_fingerprint
from .batchcore import (
    BatchRuntime,
    SweepRun,
    online_stats,
    run_sweep,
    sibling_system,
)
from .cache import (
    CACHE_ENV_VAR,
    StrategyCache,
    default_cache_dir,
    strategy_cache_key,
)
from .pool import (
    GeoSweepSpec,
    PoolSweepError,
    WorkerPool,
    run_sweep_pool,
    system_for_spec,
)

__all__ = [
    "BatchRuntime",
    "SweepRun",
    "run_sweep",
    "sibling_system",
    "CACHE_ENV_VAR",
    "StrategyCache",
    "default_cache_dir",
    "strategy_cache_key",
    "VerifyMemo",
    "online_stats",
    "trace_fingerprint",
    "GeoSweepSpec",
    "PoolSweepError",
    "WorkerPool",
    "run_sweep_pool",
    "system_for_spec",
]

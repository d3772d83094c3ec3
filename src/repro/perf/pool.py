"""The one worker pool, and the geo-scale sweep that fans out over it.

**The pool.** :class:`WorkerPool` is an ordered, streaming
``map(payloads)`` over N worker processes. Each worker builds its context
(``build(*recipe)``: a prepared system) on its first task and keeps it;
every payload runs the same ``task(context, payload)``. The mc cell
fan-out, the fuzz generation batches and :func:`run_sweep_pool` are its
users (docs/PERFORMANCE.md, "Search loop").

**Parallelism is an optimisation, never a semantic.** The same ``task``
runs in-process, on the caller's own context, when ``workers <= 1``,
when a ``map`` has a single payload, or when the pool cannot be created
or kept — ``ProcessPoolExecutor`` refusing to start (restricted
sandboxes, missing semaphores) or a worker dying mid-campaign. The last
two set :attr:`WorkerPool.fallback`. Tasks are pure functions of their
payload, so results already yielded stay valid and the map carries on
in-process from the first payload it has not yielded.

**The pool sweep.** A :func:`~repro.net.topology.geo_topology`
deployment at 60-120 nodes runs seconds per seed, and runs are
independent per seed: a :class:`~repro.deployment.Deployment` names the
deployment with primitives only, each worker builds its system from
it, and :func:`run_sweep_pool` hands the seeds to pool workers. Per-seed
trace fingerprints equal the serial in-process sweep's across the
process boundary.
"""

from __future__ import annotations

import dataclasses
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional

from ..deployment import Deployment
from .batchcore import run_sweep

#: What "the pool cannot be created or kept" looks like from the caller's
#: side: construction / process start failing (``OSError``, ``ValueError``,
#: ``ImportError`` for a missing ``sem_open``) and a worker that died.
_POOL_FAILURES = (OSError, ValueError, ImportError, BrokenProcessPool)


@dataclasses.dataclass
class _Seat:
    """One process's place at the pool: the task, the context recipe,
    and the context once built — at most once per process."""

    task: Callable[[Any, Any], Any]
    build: Callable[..., Any]
    recipe: tuple
    context: Any = None

    def run(self, payload: Any) -> Any:
        if self.context is None:
            self.context = self.build(*self.recipe)
        return self.task(self.context, payload)


#: A worker process's seat, installed by the executor's initializer and
#: read by :func:`_serve`; always None in the process that owns the pool
#: (whose seat lives on its :class:`WorkerPool`).
_seat: Optional[_Seat] = None


def _install(snapshot: bytes) -> None:
    global _seat
    _seat = _Seat(*pickle.loads(snapshot))


def _serve(payload: Any) -> Any:
    return _seat.run(payload)


class WorkerPool:
    """Ordered, streaming ``map`` over worker processes that each hold
    one context (see the module docstring for the contract).

    ``own`` is the caller's already-built context for in-process work;
    left None, the first in-process task builds one from the recipe.
    Use as a context manager: leaving it shuts the workers down.
    """

    def __init__(self, task: Callable[[Any, Any], Any],
                 build: Callable[..., Any], recipe: tuple, *,
                 workers: int, own: Any = None) -> None:
        self.workers = max(1, workers)
        #: True once a pool was wanted and could not be created or kept.
        self.fallback = False
        self._seat = _Seat(task, build, recipe, own)
        # Workers start from a snapshot taken now, not when the executor
        # chooses to start them: a run in this process attaches
        # unpicklable state (HMAC handles, handler closures) to objects
        # the recipe shares with the caller's own context.
        self._snapshot = (pickle.dumps((task, build, recipe))
                          if self.workers > 1 else b"")
        self._executor: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self._shutdown(wait=True)

    def _shutdown(self, wait: bool) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None

    def map(self, payloads: Iterable[Any]) -> Iterator[Any]:
        """Yield ``task(context, payload)`` per payload, in input order,
        each as soon as it and everything before it is done."""
        payloads = list(payloads)
        done = 0
        if self.workers > 1 and len(payloads) > 1 and not self.fallback:
            try:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers, initializer=_install,
                        initargs=(self._snapshot,))
                for result in self._executor.map(_serve, payloads):
                    yield result
                    done += 1
            except _POOL_FAILURES:
                self.fallback = True
                self._shutdown(wait=False)
        for payload in payloads[done:]:
            yield self._seat.run(payload)


# ------------------------------------------------------------ pool sweep

def _prepared(deployment: Deployment, cache: Optional[str]):
    """A pool seat's context: the deployment's system on milestone
    traces, prepared (an on-disk cache hit in a worker — the parent
    warmed it)."""
    system = deployment.system(cache=cache, trace_mode="milestones")
    system.prepare()
    return system


def _sweep_seed(system, seed: int, *, n_periods: int,
                scenario: Optional[str]) -> dict:
    """One seed of a pool sweep: run, ship back primitives only
    (RunResult traces are large and stay in the worker)."""
    run, = run_sweep(system, (seed,), n_periods, scenario=scenario)
    return {
        "seed": run.seed,
        "fingerprint": run.fingerprint,
        "wall_s": run.wall_s,
        "events": run.result.metrics["gauges"]["sim_events_executed"],
    }


def run_sweep_pool(deployment: Deployment, seeds, workers: int, *,
                   n_periods: int, scenario: Optional[str] = None,
                   cache: Optional[str] = None) -> dict:
    """Fan a multi-seed sweep of ``deployment`` out over worker
    processes.

    Each worker builds the deployment's system, prepares it against the
    shared on-disk strategy ``cache`` (the parent prepares first, so
    workers hit), and runs the seeds the pool hands it with
    :func:`run_sweep`. Results come back in the input seed order as
    primitive dicts (seed, trace fingerprint, wall seconds, events
    executed) — callers gate on the fingerprints being equal to a
    serial sweep's on milestone traces.

    If no process pool can be created or kept the sweep degrades to
    in-process execution and reports ``pooled: False`` — same results,
    no speedup, never a failure.
    """
    seeds = list(seeds)
    if not seeds:
        return {"runs": [], "workers": 0, "pooled": False}
    workers = max(1, min(workers, len(seeds)))
    recipe = (deployment, cache)
    # Warm the on-disk strategy cache once, before any worker starts.
    own = _prepared(*recipe) if cache else None
    task = partial(_sweep_seed, n_periods=n_periods, scenario=scenario)
    with WorkerPool(task, _prepared, recipe, workers=workers,
                    own=own) as pool:
        runs = list(pool.map(seeds))
    return {
        "runs": runs,
        "workers": workers,
        "pooled": workers > 1 and not pool.fallback,
    }

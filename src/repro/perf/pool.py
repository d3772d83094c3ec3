"""The one worker pool, and the multi-seed sweep that fans out over it.

**The pool.** :class:`WorkerPool` is an ordered, streaming
``map(payloads)`` over N worker processes. The workers are forked from
the caller: each inherits the caller's context (a prepared system) as it
stands when the pool first fans out, with its strategy and compiled node
programs, and keeps that copy; every payload runs the same
``task(context, payload)``. Nothing is pickled but payloads and results,
so a context may hold anything. The start method is ``fork`` by name,
not the platform default, which may pickle. The executor forks every
worker on the first submit, before it starts a thread of its own, so a
single-threaded caller forks no lock that another thread holds. The mc
cell fan-out, the fuzz generation batches and :func:`run_sweep`
are its users (docs/PERFORMANCE.md, "Search loop").

**Parallelism is an optimisation, never a semantic.** The same ``task``
runs in-process, on the caller's context, when ``workers <= 1``, when a
``map`` has a single payload, or when the pool cannot be created or kept
— no ``fork`` start method on this platform, ``ProcessPoolExecutor``
refusing to start (restricted sandboxes, missing semaphores) or a worker
dying mid-campaign. Those set :attr:`WorkerPool.fallback`. Tasks are
pure functions of their payload, so results already yielded stay valid
and the map carries on in-process from the first payload it has not
yielded.

**The sweep.** :func:`run_sweep` runs one prepared system under N
seeds: the frozen strategy (with each plan's compiled node programs)
and the router's path cache are shared across seeds instead of rebuilt
per run; each seed's key directory derives its own signing keys. Runs
are independent per seed, so the pool may hand them to workers; a :func:`~repro.net.topology.geo_topology`
deployment at 60-120 nodes runs seconds per seed. Per-seed trace
fingerprints are the same for every worker count.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional

from ..sim.trace import trace_fingerprint
from .batchcore import sibling_system
from .timing import Stopwatch

#: What "the pool cannot be created or kept" looks like from the caller's
#: side: construction / process start failing (``OSError``, ``ValueError``
#: — also a platform without ``fork`` — ``ImportError`` for a missing
#: ``sem_open``) and a worker that died.
_POOL_FAILURES = (OSError, ValueError, ImportError, BrokenProcessPool)

#: A worker process's ``(task, context)``, set by the executor's
#: initializer; always None in the process that owns the pool.
_served: Any = None


def _install(task: Callable[[Any, Any], Any], context: Any) -> None:
    # A forked worker receives its initializer's arguments by inheritance,
    # never through pickle.
    global _served
    _served = (task, context)


def _serve(payload: Any) -> Any:
    task, context = _served
    return task(context, payload)


class WorkerPool:
    """Ordered, streaming ``map`` over worker processes forked from the
    caller's ``context`` (see the module docstring for the contract).

    Use as a context manager: leaving it shuts the workers down.
    """

    def __init__(self, task: Callable[[Any, Any], Any], context: Any, *,
                 workers: int) -> None:
        self.workers = max(1, workers)
        #: True once a pool was wanted and could not be created or kept.
        self.fallback = False
        self._task = task
        self._context = context
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
                    # Workers fork on the first submit and copy the
                    # context as it stands then.
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_install,
                        initargs=(self._task, self._context))
                for result in self._executor.map(_serve, payloads):
                    yield result
                    done += 1
            except _POOL_FAILURES:
                self.fallback = True
                self._shutdown(wait=False)
        for payload in payloads[done:]:
            yield self._task(self._context, payload)


# ----------------------------------------------------------------- sweep

def _sweep_seed(system, seed: int, *, n_periods: int,
                scenario: Optional[str]) -> dict:
    """One seed of a sweep, as primitives: a RunResult's trace is large
    and stays where it ran."""
    target = (system if seed == system.config.seed
              else sibling_system(system, seed))
    adversary = links = None
    if scenario is not None:
        from ..faults.scenarios import stage
        staged = stage(scenario, target)
        adversary, links = staged.script, staged.link_script or None
    watch = Stopwatch()
    result = target.run(n_periods, adversary=adversary, link_script=links)
    return {
        "seed": seed,
        "fingerprint": trace_fingerprint(result.trace),
        "wall_s": watch.elapsed_s(),
        "events": result.metrics["gauges"]["sim_events_executed"],
    }


def run_sweep(system, seeds, *, n_periods: int,
              scenario: Optional[str] = None, workers: int = 1) -> dict:
    """Run ``n_periods`` of the prepared ``system`` under each seed.

    The system's own seed runs on it, every other seed on a
    :func:`~repro.perf.batchcore.sibling_system`. ``scenario`` (a name
    from :mod:`repro.faults.scenarios`) is staged per seed — scenario
    scripts are seed-relative; without one the runs are fault-free.
    Results come back in seed order as primitive dicts (seed, trace
    fingerprint, wall seconds, events executed), so callers can gate on
    byte-identity against independently prepared runs.

    ``workers > 1`` forks that many pool workers with ``system``; if no
    pool can be created or kept, the sweep runs in-process and reports
    ``pooled: False`` — same results, no speedup, never a failure.
    """
    seeds = list(seeds)
    if not seeds:
        return {"runs": [], "workers": 0, "pooled": False}
    workers = max(1, min(workers, len(seeds)))
    task = partial(_sweep_seed, n_periods=n_periods, scenario=scenario)
    with WorkerPool(task, system, workers=workers) as pool:
        runs = list(pool.map(seeds))
    return {
        "runs": runs,
        "workers": workers,
        "pooled": workers > 1 and not pool.fallback,
    }

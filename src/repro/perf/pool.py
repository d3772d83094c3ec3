"""The one worker pool, and the geo-scale sweep that fans out over it.

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
cell fan-out, the fuzz generation batches and :func:`run_sweep_pool`
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

**The pool sweep.** A :func:`~repro.net.topology.geo_topology`
deployment at 60-120 nodes runs seconds per seed, and runs are
independent per seed: :func:`run_sweep_pool` hands the seeds of one
prepared system to pool workers. Per-seed trace fingerprints equal the
serial in-process sweep's across the process boundary.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional

from .batchcore import run_sweep

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


# ------------------------------------------------------------ pool sweep

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


def run_sweep_pool(system, seeds, workers: int, *, n_periods: int,
                   scenario: Optional[str] = None) -> dict:
    """Fan a multi-seed sweep of the prepared ``system`` out over worker
    processes.

    Each worker is forked with ``system`` and runs the seeds the pool
    hands it with :func:`run_sweep`, as the serial sweep does. Results
    come back in the input seed order as primitive dicts (seed, trace
    fingerprint, wall seconds, events executed) — callers gate on the
    fingerprints being equal to a serial sweep's on milestone traces.

    If no process pool can be created or kept the sweep degrades to
    in-process execution and reports ``pooled: False`` — same results,
    no speedup, never a failure.
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

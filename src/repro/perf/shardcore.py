"""Geo-scale sweeps: picklable deployment recipes and a process-pool
multi-seed sweep.

A :func:`~repro.net.topology.geo_topology` deployment at 60-120 nodes
runs seconds per seed, and runs are independent per seed, so a multi-seed
sweep fans out over worker processes: :class:`GeoSweepSpec` names a
deployment with primitives only, :func:`system_for_spec` rebuilds it in
any process, and :func:`run_sweep_pool` splits the seeds over workers
(each reusing ``run_sweep``/``shared_prepare`` from
:mod:`repro.perf.batchcore` and the on-disk strategy cache warmed by the
parent). Per-seed trace fingerprints are equal to the serial in-process
sweep's across the fork boundary.

Delivery hooks are the one thing that cannot cross a process boundary;
:func:`run_sweep_pool` rejects them loudly (see ``ShardingError``)
instead of silently running unperturbed schedules.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from ..net.topology import geo_topology
from .batchcore import run_sweep, shared_prepare


class ShardingError(Exception):
    """Raised for invalid pool-sweep requests: an unknown workload name,
    or semantics that cannot cross a process boundary (delivery hooks)."""


# ------------------------------------------------------------ pool sweep

def _workload_registry() -> Dict[str, Callable]:
    """Workload factories a pool worker can rebuild by name (callables
    do not cross process boundaries; specs carry names only)."""
    from ..workload import (
        automotive_workload,
        avionics_workload,
        industrial_workload,
        pipeline_workload,
        power_grid_workload,
    )
    return {
        "industrial": industrial_workload,
        "avionics": avionics_workload,
        "automotive": automotive_workload,
        "pipeline": pipeline_workload,
        "powergrid": power_grid_workload,
    }


@dataclasses.dataclass(frozen=True)
class GeoSweepSpec:
    """A picklable recipe for one geo sweep configuration: everything a
    worker process needs to rebuild the system from scratch (names and
    numbers only — no callables, no live objects)."""

    workload: str = "industrial"
    #: Period/deadline stretch factor (see
    #: :func:`~repro.workload.stretched_workload`): geo WAN latencies
    #: do not fit inside millisecond CPS deadlines unstretched.
    stretch: int = 10
    regions: int = 3
    nodes_per_region: int = 8
    wan_latency: int = 5000
    wan_jitter: int = 0
    bandwidth: float = 1e8
    f: int = 1
    n_periods: int = 12
    seed: int = 42
    trace_mode: str = "milestones"
    cache: Optional[str] = None
    scenario: Optional[str] = None


def system_for_spec(spec: GeoSweepSpec):
    """Build (unprepared) the system a :class:`GeoSweepSpec` describes."""
    from ..core.runtime.config import BTRConfig
    from ..core.runtime.system import BTRSystem

    try:
        factory = _workload_registry()[spec.workload]
    except KeyError:
        raise ShardingError(
            f"unknown workload {spec.workload!r}; pool sweeps rebuild "
            f"workloads by name ({sorted(_workload_registry())})"
        ) from None
    workload = factory()
    if spec.stretch > 1:
        from ..workload import stretched_workload
        workload = stretched_workload(workload, spec.stretch)
    topology = geo_topology(spec.regions, spec.nodes_per_region,
                            wan_latency=spec.wan_latency,
                            wan_jitter=spec.wan_jitter,
                            bandwidth=spec.bandwidth)
    config = BTRConfig(f=spec.f, seed=spec.seed, cache=spec.cache,
                       trace_mode=spec.trace_mode)
    return BTRSystem(workload, topology, config)


def _sweep_worker(spec: GeoSweepSpec, seeds: Tuple[int, ...]) -> List[dict]:
    """One worker's share of a pool sweep: rebuild, prepare (on-disk
    cache hit — the parent warmed it), run, ship back primitives only
    (RunResult traces are large and stay in the worker)."""
    spec = dataclasses.replace(spec, seed=seeds[0])
    system = system_for_spec(spec)
    shared_prepare(system)
    runs = run_sweep(system, seeds, spec.n_periods,
                     scenario=spec.scenario)
    return [
        {
            "seed": run.seed,
            "fingerprint": run.fingerprint,
            "wall_s": run.wall_s,
            "events": run.result.metrics["gauges"]["sim_events_executed"],
        }
        for run in runs
    ]


def run_sweep_pool(spec: GeoSweepSpec, seeds, workers: int,
                   delivery_hook=None) -> dict:
    """Fan a multi-seed geo sweep out over worker processes.

    Seeds are split into ``workers`` contiguous chunks; each worker
    rebuilds the system from ``spec``, prepares it against the shared
    on-disk strategy cache (the parent prepares first, so workers hit),
    and runs its chunk with :func:`run_sweep`. Results come back in the
    input seed order as primitive dicts (seed, trace fingerprint,
    wall seconds, events executed) — callers gate on the fingerprints
    being equal to the serial sweep's.

    ``delivery_hook`` exists only to be rejected: hooks are live
    callables consulted per delivery and cannot cross a process
    boundary, so accepting one here would silently run unperturbed
    schedules. Passing one raises :class:`ShardingError`; run in-process
    instead.

    If no process pool can be created (restricted sandboxes, missing
    semaphores) the sweep degrades to in-process execution and reports
    ``pooled: False`` — same results, no speedup, never a failure.
    """
    if delivery_hook is not None:
        raise ShardingError(
            "delivery hooks cannot cross process boundaries; a pool "
            "sweep with a hook would silently explore nothing — run "
            "in-process instead"
        )
    seeds = list(seeds)
    if not seeds:
        return {"runs": [], "workers": 0, "pooled": False}
    workers = max(1, min(workers, len(seeds)))
    base, extra = divmod(len(seeds), workers)
    chunks: List[Tuple[int, ...]] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        if size:
            chunks.append(tuple(seeds[start:start + size]))
        start += size
    # Warm the on-disk strategy cache once, before any worker forks.
    if spec.cache:
        shared_prepare(system_for_spec(spec))
    pooled = False
    results: List[List[dict]] = []
    if len(chunks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [pool.submit(_sweep_worker, spec, chunk)
                           for chunk in chunks]
                results = [future.result() for future in futures]
                pooled = True
        except (OSError, ValueError, ImportError):
            results = []
    if not results:
        results = [_sweep_worker(spec, chunk) for chunk in chunks]
    by_seed = {row["seed"]: row for rows in results for row in rows}
    return {
        "runs": [by_seed[seed] for seed in seeds],
        "workers": len(chunks),
        "pooled": pooled,
    }

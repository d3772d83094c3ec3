"""The fuzz campaign: seeded generations fanned out over workers.

One campaign is the unit ``repro fuzz campaign`` runs: seed an initial
population of single-injection scripts, then for each generation mutate
parents drawn from the survivor pool (elite fitness ∪ novel coverage),
evaluate every candidate through the normal ``BTRSystem.run`` path,
check the per-path invariants, and keep what climbs or covers. Any
violating script is minimised to its shortest violating injection
prefix, serialised in the ``mc/`` counterexample format, and
replay-confirmed — the artifact a corpus entry is made of.

**Byte-reproducibility.** The report is a pure function of (workload,
topology, config, params): candidate genomes derive only from the
campaign seed, the generation index, and the candidate index; every
evaluation is a pure function of its genome; batches are evaluated by
the order-preserving :meth:`~repro.perf.pool.WorkerPool.map` and merged
in candidate order regardless of completion order. ``workers=4``
therefore serialises byte-identically to ``workers=1`` — the tests
assert it. Wall-clock figures live in the separate :class:`FuzzStats`,
never in the report.

**Parallelism is an optimisation, never a semantic**: same preamble,
pool and ``pool_fallback`` contract as :mod:`repro.mc.campaign`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..faults.adversary import script_from_dict
from ..mc.campaign import prepare_campaign
from ..mc.choices import Cell
from ..mc.counterexample import confirm_replay, counterexample_to_dict
from ..mc.explorer import state_fingerprint
from ..mc.invariants import Violation
from ..mc.judge import first_violating_prefix, judge
from ..obs.recovery import reconstruct_timelines
from ..perf.pool import WorkerPool
from ..perf.timing import Stopwatch
from ..sim.random import DeterministicRandom
from .fitness import (
    coverage_keys,
    fitness_vector,
    rank_key,
    verdict_keys,
)
from .mutate import MutationSpace, canonical_script, mutate_script, seed_scripts

#: Bumped when the campaign report layout changes incompatibly.
FUZZ_REPORT_VERSION = 1


@dataclass(frozen=True)
class FuzzParams:
    """Bounds and knobs of one campaign; frozen so it ships to workers
    and into the report verbatim."""

    #: Fault kinds the mutator may pick.
    kinds: Tuple[str, ...] = ("crash", "commission", "omission", "timing")
    #: Injection window in periods: faults land in
    #: ``[window[0] * P, window[1] * P]``.
    window: Tuple[float, float] = (2.0, 3.0)
    #: Injection ticks the seed population samples across the window.
    ticks: int = 2
    #: Mutation generations after the seed generation.
    generations: int = 4
    #: Mutants generated per generation.
    batch: int = 8
    #: Top-fitness survivors eligible as mutation parents.
    elite: int = 4
    #: Max injections per script (the paper's k ≤ f).
    max_injections: int = 1
    #: Simulated periods per run; 0 auto-sizes so the latest injection
    #: plus ``max_injections`` recovery budgets fit before the run ends.
    n_periods: int = 0
    #: Recovery bound to check, µs; None means the prepared budget.
    R_us: Optional[int] = None
    #: Definition 3.1 adversary strength multiplier (bound is ``k * R``).
    k: int = 1
    #: Cap on minimised + replay-confirmed artifacts in the report.
    max_artifacts: int = 8
    #: Worker processes for candidate evaluation.
    workers: int = 1
    #: Seed every candidate genome derives from.
    seed: int = 0


@dataclass
class FuzzStats:
    """Wall-clock figures, kept out of the byte-compared report."""

    workers: int = 1
    pool_fallback: bool = False
    wall_s: float = 0.0
    runs: int = 0
    runs_per_sec: float = 0.0


def _evaluate(system, payload: dict, *, params: FuzzParams) -> dict:
    """One candidate end-to-end: run, score, cover. Pure in the genome;
    runs identically in-process or in a worker."""
    result, violations, _ = judge(
        system, script_from_dict(payload), n_periods=params.n_periods,
        R_us=params.R_us, k=params.k)
    timelines = reconstruct_timelines(result)
    coverage = coverage_keys(result, timelines, payload,
                             system.workload.period)
    coverage |= verdict_keys(violations)
    return {
        "key": canonical_script(payload),
        "script": payload,
        "fitness": list(fitness_vector(timelines, params.R_us,
                                       k=params.k)),
        "coverage": sorted(coverage),
        "violations": [v.to_dict() for v in violations],
    }


def _make_artifact(system, record: dict, params: FuzzParams,
                   meta: Optional[dict]) -> dict:
    """Minimise, serialise (mc counterexample format), replay-confirm
    one evaluated violating script (its :func:`_evaluate` record).

    Injections are time-ordered, so prefixes are the natural shrink: the
    shortest non-empty injection prefix that still violates is kept. The
    whole script's verdict is the record's, so it is not re-run.
    """
    payload = record["script"]

    def violations_of(entries):
        candidate = {"version": payload["version"], "injections": entries}
        return judge(system, script_from_dict(candidate),
                     n_periods=params.n_periods, R_us=params.R_us,
                     k=params.k)[1]

    entries, violations = first_violating_prefix(
        payload["injections"], violations_of, shortest=1,
        known=[Violation(**v) for v in record["violations"]])
    minimised = {"version": payload["version"], "injections": entries}
    first = entries[0]
    # The cell labels the artifact's first injection; the serialised
    # fault script is the authoritative replay input (deliveries are
    # empty — the fuzzer perturbs the adversary, not the network).
    artifact = counterexample_to_dict(
        Cell(first["node"], first["kind"], first["time"]), (),
        violations, script=script_from_dict(minimised),
        n_periods=params.n_periods, R_us=params.R_us, k=params.k,
        seed=params.seed, meta=dict(meta or {}, source="fuzz"))
    result = confirm_replay(system, artifact)
    # The primitives-only path abstraction: corpus checks compare replays
    # across processes (and commits) by this digest.
    artifact["replay_digest"] = state_fingerprint(result)
    return artifact


def _survivor_pool(evaluated: Dict[str, dict], novel: List[str],
                   elite: int) -> List[str]:
    """Mutation parents: elite by fitness, then coverage-novel keys, in
    a deterministic order."""
    ranked = sorted(evaluated.values(), key=rank_key)
    pool = [record["key"] for record in ranked[:elite]]
    pool.extend(key for key in novel if key not in pool)
    return pool


def run_fuzz_campaign(workload, topology, config,
                      params: Optional[FuzzParams] = None,
                      meta: Optional[dict] = None
                      ) -> Tuple[dict, FuzzStats]:
    """Run one coverage-guided fuzz campaign.

    Returns ``(report, stats)``: the report is deterministic and
    byte-comparable across worker counts; the stats carry wall-clock
    figures (runs/sec, pool fallback) for the benchmark layer.
    """
    watch = Stopwatch()
    params = params or FuzzParams()
    # One recovery budget per possible injection must fit the horizon.
    system, resolved = prepare_campaign(
        workload, topology, config, params,
        recoveries=params.max_injections)

    space = MutationSpace.from_system(
        system, kinds=resolved.kinds, window=resolved.window,
        max_injections=resolved.max_injections)

    # One pool, held open across generations.
    pool = WorkerPool(partial(_evaluate, params=resolved), system,
                      workers=resolved.workers)
    stats = FuzzStats(workers=pool.workers)

    evaluated: Dict[str, dict] = {}
    coverage_total: set = set()
    novel_keys: List[str] = []
    violating_keys: List[str] = []
    history: List[dict] = []
    with pool:
        for gen in range(resolved.generations + 1):
            if gen == 0:
                batch = seed_scripts(space, ticks=resolved.ticks)
            else:
                gen_rng = DeterministicRandom(resolved.seed).fork(
                    f"gen{gen}")
                parents = _survivor_pool(evaluated, novel_keys,
                                         resolved.elite)
                batch = []
                for i in range(resolved.batch):
                    rng = gen_rng.fork(f"cand{i}")
                    parent = evaluated[rng.choice(parents)]["script"]
                    batch.append(mutate_script(parent, space, rng))
            # Dedupe within the batch and against everything evaluated:
            # re-running a genome cannot add fitness or coverage.
            todo: List[dict] = []
            seen = set(evaluated)
            for payload in batch:
                key = canonical_script(payload)
                if key not in seen:
                    seen.add(key)
                    todo.append(payload)
            fresh_cov = 0
            best: Optional[List[int]] = None
            for record in pool.map(todo):
                evaluated[record["key"]] = record
                fresh = set(record["coverage"]) - coverage_total
                if fresh:
                    coverage_total |= fresh
                    fresh_cov += len(fresh)
                    novel_keys.append(record["key"])
                if record["violations"]:
                    violating_keys.append(record["key"])
                if best is None or record["fitness"] > best:
                    best = record["fitness"]
            history.append({
                "generation": gen,
                "candidates": len(batch),
                "evaluated": len(todo),
                "new_coverage": fresh_cov,
                "best_fitness": best,
            })
    stats.pool_fallback = pool.fallback

    # Minimise + replay-confirm in discovery order; dedupe artifacts by
    # their minimised genome (many parents can shrink to one script).
    artifacts: List[dict] = []
    seen_minimised: set = set()
    for key in violating_keys:
        if len(artifacts) >= resolved.max_artifacts:
            break
        artifact = _make_artifact(system, evaluated[key], resolved, meta)
        minimised_key = canonical_script(artifact["fault_script"])
        if minimised_key not in seen_minimised:
            seen_minimised.add(minimised_key)
            artifacts.append(artifact)

    overall_best = max((evaluated[key]["fitness"]
                        for key in sorted(evaluated)), default=None)
    # Worker count is an execution detail (like wall-clock): it lives in
    # the stats, never in the byte-compared report.
    params_payload = asdict(resolved)
    del params_payload["workers"]
    report = {
        "version": FUZZ_REPORT_VERSION,
        "meta": dict(meta or {}),
        "params": params_payload,
        "budget_us": system.budget.total_us,
        "space": asdict(space),
        "generations": history,
        "evaluated": len(evaluated),
        "coverage": sorted(coverage_total),
        "best_fitness": overall_best,
        "violating_scripts": len(violating_keys),
        "counterexamples": artifacts,
        "found": bool(artifacts),
    }
    stats.runs = len(evaluated)
    stats.wall_s = watch.elapsed_s()
    if stats.wall_s > 0:
        stats.runs_per_sec = stats.runs / stats.wall_s
    return report, stats

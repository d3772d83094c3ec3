"""The benchmark's metrics: names, units, and how each is derived.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names in
``BENCHMARK.json`` (a self-test keeps the two equal). The derivations
work on *op records*: one dict per executed op with its wall time, its
span totals (``name -> [calls, inclusive_ns, self_ns]``, see
``spans.py``) and its simulated-side counters (see ``layers.py``).

Conventions, also in ``README.md``:

* ``*_ms`` is host milliseconds per op, the median over the run's ops.
  It is *self time* (the span minus its child spans) for every layer
  except the four stage totals ``core.runtime.prepare_ms``,
  ``core.runtime.run_ms``, ``mc.campaign_ms`` and ``fuzz.campaign_ms``,
  which are inclusive so that they can be read as a share of the op.
* Metrics marked fine-grained come from the traced phase; every other
  time comes from the untraced phase of the same process.
* Counts and the ratios built from them are per op, averaged over the
  run's first round — the same ops in every run of a seed, whatever
  the run length — so they repeat exactly.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

#: (name, unit, better, bound). The bound is the share of the base's
#: median by which a metric may worsen before it counts as a regression.
#: The time bounds are as wide as the registration allows because the
#: reference host's speed drifts by 10-25 % over minutes (a fixed
#: pure-Python loop shows the same drift), which no statistic over one
#: 20 s run removes; see README.md, "Noise".
END_TO_END = [
    ("ops_per_s", "op/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]

#: (name, unit, better). Order is the order of the README glossary.
PER_LAYER = [
    ("core.runtime.prepare_ms", "ms", "lower"),
    ("core.runtime.run_ms", "ms", "lower"),
    ("core.runtime.budget_ms", "ms", "lower"),
    ("core.runtime.sibling_ms", "ms", "lower"),
    ("core.runtime.agent_ms", "ms", "lower"),
    ("core.runtime.messages_sent", "count", "lower"),
    ("core.runtime.messages_dropped", "count", "lower"),
    ("core.runtime.run_unattributed_share", "ratio", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.schedule_calls", "count", "lower"),
    ("sim.schedule_ms", "ms", "lower"),
    ("sim.probe.heap_ns_per_event", "ns", "lower"),
    ("sim.heap_floor_share", "ratio", "higher"),
    ("sim.trace.retained_events", "count", "lower"),
    ("sim.trace.tallied_events", "count", "higher"),
    ("sim.trace.record_calls", "count", "lower"),
    ("sim.trace.record_ms", "ms", "lower"),
    ("sim.probe.trace_record_ns", "ns", "lower"),
    ("crypto.signs", "count", "lower"),
    ("crypto.verifies", "count", "lower"),
    ("crypto.memo_hit_ratio", "ratio", "higher"),
    ("crypto.sign_ms", "ms", "lower"),
    ("crypto.verify_ms", "ms", "lower"),
    ("crypto.probe.sign_ns", "ns", "lower"),
    ("crypto.probe.verify_ns", "ns", "lower"),
    ("crypto.probe.verify_hit_ns", "ns", "lower"),
    ("perf.batchcore.batches_fired", "count", "lower"),
    ("perf.batchcore.entries_batched", "count", "higher"),
    ("perf.batchcore.coalesce_ratio", "ratio", "higher"),
    ("perf.batchcore.pool_reuse_ratio", "ratio", "higher"),
    ("core.detector.checks", "count", "lower"),
    ("core.detector.check_ms", "ms", "lower"),
    ("core.detector.declarations", "count", "lower"),
    ("core.evidence.records_in", "count", "lower"),
    ("core.evidence.evaluate_ms", "ms", "lower"),
    ("core.evidence.accept_ratio", "ratio", "higher"),
    ("core.modes.switches", "count", "lower"),
    ("core.modes.switch_ms", "ms", "lower"),
    ("faults.stage_ms", "ms", "lower"),
    ("obs.reconstruct_ms", "ms", "lower"),
    ("obs.export_ms", "ms", "lower"),
    ("obs.load_ms", "ms", "lower"),
    ("obs.report_bytes", "B", "lower"),
    ("analysis.verdict_ms", "ms", "lower"),
    ("analysis.timeline_ms", "ms", "lower"),
    ("net.build_ms", "ms", "lower"),
    ("workload.build_ms", "ms", "lower"),
    ("core.planner.build_ms", "ms", "lower"),
    ("core.planner.plans", "count", "lower"),
    ("core.planner.plans_per_s", "1/s", "higher"),
    ("core.planner.place_ms", "ms", "lower"),
    ("core.planner.augment_ms", "ms", "lower"),
    ("core.planner.serialize_ms", "ms", "lower"),
    ("sched.synthesize_calls", "count", "lower"),
    ("sched.synthesize_ms", "ms", "lower"),
    ("verify.verify_ms", "ms", "lower"),
    ("verify.findings", "count", "lower"),
    ("verify.bounds.compute_ms", "ms", "lower"),
    ("perf.cache.store_ms", "ms", "lower"),
    ("perf.cache.load_ms", "ms", "lower"),
    ("perf.cache.hit_ratio", "ratio", "higher"),
    ("perf.cache.entry_bytes", "B", "lower"),
    ("mc.campaign_ms", "ms", "lower"),
    ("mc.paths", "count", "lower"),
    ("mc.paths_per_s", "1/s", "higher"),
    ("mc.dedup_hit_ratio", "ratio", "higher"),
    ("mc.prune_ratio", "ratio", "higher"),
    ("mc.cell_ms", "ms", "lower"),
    ("mc.check_path_ms", "ms", "lower"),
    ("mc.fingerprint_ms", "ms", "lower"),
    ("fuzz.campaign_ms", "ms", "lower"),
    ("fuzz.scripts", "count", "lower"),
    ("fuzz.scripts_per_s", "1/s", "higher"),
    ("fuzz.coverage_keys", "count", "higher"),
    ("fuzz.mutate_ms", "ms", "lower"),
    ("fuzz.fitness_ms", "ms", "lower"),
    ("fuzz.minimise_runs", "count", "lower"),
    ("search.run_share", "ratio", "lower"),
    ("search.runs", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.half_split_ratio", "ratio", "higher"),
]

#: Per-layer metrics that must read exactly the same in two runs of one
#: seed: simulated-side counts and the ratios built from them.
EXACT_UNITS = ("count", "B")
EXACT_RATIOS = (
    "crypto.memo_hit_ratio", "perf.batchcore.coalesce_ratio",
    "perf.batchcore.pool_reuse_ratio", "core.evidence.accept_ratio",
    "perf.cache.hit_ratio", "mc.dedup_hit_ratio", "mc.prune_ratio",
)


def is_exact(name: str, unit: str) -> bool:
    return unit in EXACT_UNITS or name in EXACT_RATIOS


# ------------------------------------------------------------ helpers

def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _span(op: dict, name: str, field: int) -> int:
    total = op["totals"].get(name)
    return total[field] if total else 0


def self_ms(ops: List[dict], span: str) -> float:
    return _median([_span(op, span, 2) / 1e6 for op in ops])


def incl_ms(ops: List[dict], span: str) -> float:
    return _median([_span(op, span, 1) / 1e6 for op in ops])


def mean_calls(ops: List[dict], span: str) -> float:
    return sum(_span(op, span, 0) for op in ops) / len(ops)


def mean_count(ops: List[dict], counter: str) -> float:
    return sum(op["counters"].get(counter, 0) for op in ops) / len(ops)


def ratio(ops: List[dict], num: str, den: Sequence[str]) -> float:
    top = sum(op["counters"].get(num, 0) for op in ops)
    bottom = sum(op["counters"].get(d, 0) for op in ops for d in den)
    return top / bottom if bottom else 0.0


def per_op_rate(ops: List[dict], counter: str, span: str,
                field: int) -> float:
    """Median over ops of ``counter`` per second spent in ``span``."""
    rates = [op["counters"].get(counter, 0) * 1e9 / _span(op, span, field)
             for op in ops if _span(op, span, field)]
    return _median(rates)


def percentile_with_tail(values: Sequence[float]):
    """The highest of a fixed ladder of percentiles that still has at
    least ten samples beyond it, as ``(percentile, value)``; ``None``
    when even the median has fewer."""
    ordered = sorted(values)
    best = None
    for pct in (50, 75, 90, 95, 99, 99.9):
        beyond = len(ordered) - int(len(ordered) * pct / 100)
        if beyond >= 10:
            best = (pct, ordered[min(len(ordered) - 1,
                                     int(len(ordered) * pct / 100))])
    return best


def round_rates(ops: List[dict]) -> List[float]:
    """Ops per second of each round (ops in the round over the sum of
    their wall times)."""
    by_round: Dict[int, List[int]] = {}
    for op in ops:
        by_round.setdefault(op["round"], []).append(op["wall_ns"])
    return [len(walls) * 1e9 / sum(walls)
            for _, walls in sorted(by_round.items())]


def ops_per_s(ops: List[dict]) -> float:
    """Median round throughput. Every round runs the same mix of cases,
    so rounds are like-for-like samples, and their median shrugs off
    the host's occasional slow second, which a plain ops-over-time mean
    does not."""
    return _median(round_rates(ops))


def half_split_ratio(ops: List[dict]) -> float:
    """Second-half over first-half ``ops_per_s``, split at a round
    boundary (the middle round of an odd count is left out)."""
    rounds = sorted({op["round"] for op in ops})
    half = len(rounds) // 2
    if not half:
        return 1.0
    first = [op for op in ops if op["round"] in rounds[:half]]
    second = [op for op in ops if op["round"] in rounds[-half:]]
    return ops_per_s(second) / ops_per_s(first)


def op_p50_ms(ops: List[dict]) -> float:
    """Median op wall time: the median over the workload's cases of each
    case's own median. Cases differ in cost by up to 3x, so the plain
    median of the mixture sits between two cost classes and jumps with
    the seed's draws; within a case the samples are like-for-like."""
    by_case: Dict[str, List[float]] = {}
    for op in ops:
        case = op["key"].split("/")[0]
        by_case.setdefault(case, []).append(op["wall_ns"] / 1e6)
    return _median([_median(walls) for walls in by_case.values()])


def derive_end_to_end(ops: List[dict], setup_s: float,
                      peak_rss_mb: float) -> Dict[str, float]:
    return {
        "ops_per_s": ops_per_s(ops),
        "op_p50_ms": op_p50_ms(ops),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def derive_per_layer(untraced: List[dict], traced: List[dict],
                     window: int, probes: Dict[str, float]
                     ) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from the two phases of a traced run.

    ``untraced`` and ``traced`` are the op records of the two phases
    (same inputs, in the same order); ``window`` is the number of
    leading ops counts are averaged over.
    """
    first = untraced[:window]
    fine = traced[:window]
    heap_ns = probes["sim.probe.heap_ns_per_event"]
    common = min(len(untraced), len(traced))
    run_ms = incl_ms(untraced, "core.runtime.run")
    out = {
        "core.runtime.prepare_ms": incl_ms(untraced, "core.runtime.prepare"),
        "core.runtime.run_ms": run_ms,
        "core.runtime.budget_ms": self_ms(untraced, "core.runtime.budget"),
        "core.runtime.sibling_ms": self_ms(untraced, "core.runtime.sibling"),
        "core.runtime.agent_ms": self_ms(traced, "core.runtime.agent"),
        "core.runtime.messages_sent":
            mean_count(first, "core.runtime.messages_sent"),
        "core.runtime.messages_dropped":
            mean_count(first, "core.runtime.messages_dropped"),
        "core.runtime.run_unattributed_share": _median([
            _span(op, "core.runtime.run", 2) / _span(op, "core.runtime.run", 1)
            for op in traced if _span(op, "core.runtime.run", 1)]),
        "sim.events": mean_count(first, "sim.events"),
        "sim.events_per_s":
            per_op_rate(untraced, "sim.events", "core.runtime.run", 1),
        "sim.schedule_calls": mean_calls(fine, "sim.schedule"),
        "sim.schedule_ms": self_ms(traced, "sim.schedule"),
        "sim.heap_floor_share": (
            heap_ns * mean_calls(fine, "sim.schedule") / 1e6 / run_ms
            if run_ms else 0.0),
        "sim.trace.retained_events":
            mean_count(first, "sim.trace.retained_events"),
        "sim.trace.tallied_events":
            mean_count(first, "sim.trace.tallied_events"),
        "sim.trace.record_calls": mean_calls(fine, "sim.trace.record"),
        "sim.trace.record_ms": self_ms(traced, "sim.trace.record"),
        "crypto.signs": mean_count(first, "crypto.signs"),
        "crypto.verifies": mean_count(first, "crypto.verifies"),
        "crypto.memo_hit_ratio":
            ratio(first, "crypto.memo_hits", ["crypto.memo_lookups"]),
        "crypto.sign_ms": self_ms(traced, "crypto.sign"),
        "crypto.verify_ms": self_ms(traced, "crypto.verify"),
        "perf.batchcore.batches_fired":
            mean_count(first, "perf.batchcore.batches_fired"),
        "perf.batchcore.entries_batched":
            mean_count(first, "perf.batchcore.entries_batched"),
        "perf.batchcore.coalesce_ratio":
            ratio(first, "perf.batchcore.entries_batched",
                  ["perf.batchcore.batches_fired"]),
        "perf.batchcore.pool_reuse_ratio":
            ratio(first, "perf.batchcore.pool_reused",
                  ["perf.batchcore.pool_acquired"]),
        "core.detector.checks": mean_calls(fine, "core.detector.check"),
        "core.detector.check_ms": self_ms(traced, "core.detector.check"),
        "core.detector.declarations":
            mean_count(first, "core.detector.declarations"),
        "core.evidence.records_in": mean_calls(fine, "core.evidence.note"),
        "core.evidence.evaluate_ms":
            self_ms(traced, "core.evidence.evaluate"),
        "core.evidence.accept_ratio":
            ratio(first, "core.evidence.accepted",
                  ["core.evidence.accepted", "core.evidence.rejected"]),
        "core.modes.switches": mean_count(first, "core.modes.switches"),
        "core.modes.switch_ms": self_ms(traced, "core.modes.switch"),
        "faults.stage_ms": self_ms(untraced, "faults.stage"),
        "obs.reconstruct_ms": self_ms(untraced, "obs.reconstruct"),
        "obs.export_ms": self_ms(untraced, "obs.export"),
        "obs.load_ms": self_ms(untraced, "obs.load"),
        "obs.report_bytes": mean_count(first, "obs.report_bytes"),
        "analysis.verdict_ms": self_ms(untraced, "analysis.verdict"),
        "analysis.timeline_ms": self_ms(untraced, "analysis.timeline"),
        "net.build_ms": self_ms(untraced, "net.build"),
        "workload.build_ms": self_ms(untraced, "workload.build"),
        "core.planner.build_ms": self_ms(untraced, "core.planner.build"),
        "core.planner.plans": mean_count(first, "core.planner.plans"),
        "core.planner.plans_per_s":
            per_op_rate(untraced, "core.planner.plans",
                        "core.planner.build", 2),
        "core.planner.place_ms": self_ms(traced, "core.planner.place"),
        "core.planner.augment_ms": self_ms(traced, "core.planner.augment"),
        "core.planner.serialize_ms":
            self_ms(untraced, "core.planner.serialize"),
        "sched.synthesize_calls": mean_calls(fine, "sched.synthesize"),
        "sched.synthesize_ms": self_ms(traced, "sched.synthesize"),
        "verify.verify_ms": self_ms(untraced, "verify.verify"),
        "verify.findings": mean_count(first, "verify.findings"),
        "verify.bounds.compute_ms":
            self_ms(untraced, "verify.bounds.compute"),
        "perf.cache.store_ms": self_ms(untraced, "perf.cache.store"),
        "perf.cache.load_ms": self_ms(untraced, "perf.cache.load"),
        "perf.cache.hit_ratio":
            ratio(first, "perf.cache.hits", ["perf.cache.lookups"]),
        "perf.cache.entry_bytes":
            mean_count(first, "perf.cache.entry_bytes"),
        "mc.campaign_ms": incl_ms(untraced, "mc.campaign"),
        "mc.paths": mean_count(first, "mc.paths"),
        "mc.paths_per_s":
            per_op_rate(untraced, "mc.paths", "mc.campaign", 1),
        "mc.dedup_hit_ratio": ratio(first, "mc.dedup_hits", ["mc.paths"]),
        "mc.prune_ratio":
            ratio(first, "mc.pruned", ["mc.pruned", "mc.paths"]),
        "mc.cell_ms": self_ms(traced, "mc.cell"),
        "mc.check_path_ms": self_ms(traced, "mc.check_path"),
        "mc.fingerprint_ms": self_ms(traced, "mc.fingerprint"),
        "fuzz.campaign_ms": incl_ms(untraced, "fuzz.campaign"),
        "fuzz.scripts": mean_count(first, "fuzz.scripts"),
        "fuzz.scripts_per_s":
            per_op_rate(untraced, "fuzz.scripts", "fuzz.campaign", 1),
        "fuzz.coverage_keys": mean_count(first, "fuzz.coverage_keys"),
        "fuzz.mutate_ms": self_ms(traced, "fuzz.mutate"),
        "fuzz.fitness_ms": self_ms(traced, "fuzz.fitness"),
        "fuzz.minimise_runs": (mean_count(first, "fuzz.runs")
                               - mean_count(first, "fuzz.scripts")),
        "search.run_share": _median([
            _span(op, "core.runtime.run", 1)
            / (_span(op, "mc.campaign", 1) + _span(op, "fuzz.campaign", 1))
            for op in untraced
            if _span(op, "mc.campaign", 1) + _span(op, "fuzz.campaign", 1)]),
        "search.runs": mean_count(first, "search.runs"),
        "bench.trace_overhead_ratio": (
            _median([op["wall_ns"] for op in traced[:common]])
            / _median([op["wall_ns"] for op in untraced[:common]])),
        "bench.half_split_ratio": half_split_ratio(untraced),
    }
    out.update(probes)
    return out

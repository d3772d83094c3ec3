"""Which public names of the program carry which layer's span.

The benchmark measures layers from outside: :func:`install` replaces a
public function or class attribute of ``repro`` with a span-recording
wrapper (:func:`spans.wrap`). A plain function is replaced in *every*
``repro`` module namespace that holds it, because consumers import by
name (``from ..detector.checker import run_check``); for that to reach
lazily imported consumers too, :func:`import_program` imports every
``repro`` module first.

Two sets. The stage-boundary set (``fine=False``) is a handful of calls
per op and is installed in every run. The fine-grained set
(``fine=True``) sits on per-event paths — one heap push, one trace
append, one HMAC — and is installed only for the traced phase.

A target that no longer exists is skipped and reported, never an
error: the benchmark must keep running across the refactors it judges,
and a metric whose span is gone reads 0 with the name listed under
``missing_wrap_targets``. ``README.md`` lists these names as the API
surface later changes keep or re-export.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
from typing import Callable, List, Optional, Tuple

import repro
from repro.sim import trace as kinds
from spans import Tracer, wrap


def import_program() -> None:
    """Import every ``repro`` module so no consumer namespace appears
    after the wrappers went in."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


# ---------------------------------------------------------- observers
# Each reads simulated-side counts off a finished call; all of them
# repeat exactly for the same inputs.

def _observe_run(tracer: Tracer, args, result) -> None:
    system = args[0]
    trace = result.trace
    add = tracer.add
    retained = len(trace)
    add("sim.events", system.sim.events_executed)
    add("sim.trace.retained_events", retained)
    add("sim.trace.tallied_events",
        sum(trace.kind_counts().values()) - retained)
    add("core.runtime.messages_sent", trace.count(kinds.MessageSent))
    add("core.runtime.messages_dropped", trace.count(kinds.MessageDropped))
    add("core.detector.declarations", trace.count(kinds.PathDeclared))
    add("core.evidence.accepted", trace.count(kinds.EvidenceAccepted))
    add("core.evidence.rejected", trace.count(kinds.EvidenceRejected))
    add("core.modes.switches", trace.count(kinds.ModeSwitchCompleted))
    directory = system.directory
    add("crypto.signs", directory.signs)
    add("crypto.verifies", directory.verifies)
    memo = directory.verify_memo
    if memo is not None:
        add("crypto.memo_hits", memo.hits)
        add("crypto.memo_lookups", memo.hits + memo.misses)
    batch = getattr(system, "batch_runtime", None)
    if batch is not None:
        stats = batch.stats()
        add("perf.batchcore.batches_fired", stats["batches_fired"])
        add("perf.batchcore.entries_batched", stats["entries_batched"])
        add("perf.batchcore.pool_acquired", stats["pool"]["acquired"])
        add("perf.batchcore.pool_reused", stats["pool"]["reused"])
    if tracer.inside("fuzz.campaign"):
        add("search.runs")
        add("fuzz.runs")
    elif tracer.inside("mc.campaign"):
        add("search.runs")


def _observe_prepare(tracer: Tracer, args, result) -> None:
    system = args[0]
    stats = system.plan_stats  # None unless the perf layer planned
    if stats is not None and stats.cache_key is not None:
        tracer.add("perf.cache.lookups")
        if stats.cache_hit:
            tracer.add("perf.cache.hits")
            return
    tracer.add("core.planner.plans", len(system.strategy))


def _observe_store(tracer: Tracer, args, path) -> None:
    tracer.add("perf.cache.entry_bytes", os.path.getsize(path))


def _observe_verify(tracer: Tracer, args, report) -> None:
    tracer.add("verify.findings", len(report.findings))


def _observe_export(tracer: Tracer, args, report) -> None:
    tracer.add("obs.report_bytes", os.path.getsize(args[1]))


def _observe_mc(tracer: Tracer, args, result) -> None:
    totals = result[0]["totals"]
    tracer.add("mc.paths", totals["paths"])
    tracer.add("mc.dedup_hits", totals["dedup_hits"])
    tracer.add("mc.pruned", totals["pruned"])


def _observe_fuzz(tracer: Tracer, args, result) -> None:
    report = result[0]
    tracer.add("fuzz.scripts", report["evaluated"])
    tracer.add("fuzz.coverage_keys", len(report["coverage"]))


#: (span name, "module:attribute" or "module:Class.attribute",
#:  fine-grained?, observer)
Target = Tuple[str, str, bool, Optional[Callable]]

TARGETS: List[Target] = [
    # ---- stage boundaries: installed in every run -------------------
    ("core.runtime.prepare", "repro.core.runtime.system:BTRSystem.prepare",
     False, _observe_prepare),
    ("core.runtime.run", "repro.core.runtime.system:BTRSystem.run",
     False, _observe_run),
    ("core.runtime.budget", "repro.core.runtime.budget:compute_budget",
     False, None),
    ("core.runtime.budget", "repro.core.runtime.budget:distribution_bound",
     False, None),
    ("core.runtime.sibling", "repro.perf.batchcore:sibling_system",
     False, None),
    ("faults.stage", "repro.faults.scenarios:stage", False, None),
    ("obs.reconstruct", "repro.obs.recovery:reconstruct_timelines",
     False, None),
    ("obs.reconstruct", "repro.obs.recovery:budget_attribution",
     False, None),
    ("obs.export", "repro.obs.export:export_run", False, _observe_export),
    ("obs.load", "repro.obs.export:load_report", False, None),
    ("obs.load", "repro.obs.export:render_phase_report", False, None),
    ("analysis.verdict", "repro.analysis.correctness:btr_verdict",
     False, None),
    ("analysis.timeline", "repro.analysis.timeline:build_timeline",
     False, None),
    ("analysis.timeline", "repro.analysis.timeline:render_timeline",
     False, None),
    ("net.build", "repro.net.topology:full_mesh_topology", False, None),
    ("workload.build", "repro.workload.generators:industrial_workload",
     False, None),
    ("workload.build", "repro.workload.generators:avionics_workload",
     False, None),
    ("workload.build", "repro.workload.generators:automotive_workload",
     False, None),
    ("workload.build", "repro.workload.generators:power_grid_workload",
     False, None),
    ("workload.build", "repro.workload.generators:pipeline_workload",
     False, None),
    ("core.planner.build", "repro.core.planner.strategy:build_strategy",
     False, None),
    ("core.planner.serialize",
     "repro.core.planner.serialize:strategy_to_json", False, None),
    ("verify.verify", "repro.verify.runner:verify_strategy",
     False, _observe_verify),
    ("verify.bounds.compute", "repro.verify.bounds.analyzer:compute_bounds",
     False, None),
    ("perf.cache.store", "repro.perf.cache:StrategyCache.store",
     False, _observe_store),
    ("perf.cache.load", "repro.perf.cache:StrategyCache.load", False, None),
    ("mc.campaign", "repro.mc.campaign:run_campaign", False, _observe_mc),
    ("fuzz.campaign", "repro.fuzz.campaign:run_fuzz_campaign",
     False, _observe_fuzz),
    # ---- fine-grained: installed for the traced phase only ----------
    ("core.runtime.agent",
     "repro.core.runtime.agent:NodeAgent.on_period_start", True, None),
    ("core.runtime.agent",
     "repro.core.runtime.agent:NodeAgent.compromise", True, None),
    ("core.runtime.agent",
     "repro.core.runtime.agent:NodeAgent._on_message", True, None),
    ("sim.schedule", "repro.sim.engine:Simulator.schedule", True, None),
    ("sim.schedule", "repro.sim.engine:Simulator.call_at", True, None),
    ("sim.trace.record", "repro.sim.trace:Trace.record", True, None),
    ("crypto.sign", "repro.crypto.signatures:KeyDirectory.sign_bytes",
     True, None),
    ("crypto.sign",
     "repro.crypto.signatures:KeyDirectory.sign_bytes_batch", True, None),
    ("crypto.verify",
     "repro.crypto.signatures:KeyDirectory.verify_statement", True, None),
    ("crypto.verify", "repro.crypto.signatures:KeyDirectory.verify_bytes",
     True, None),
    ("core.detector.check", "repro.core.detector.checker:run_check",
     True, None),
    ("core.detector.check", "repro.core.detector.checker:audit_forward",
     True, None),
    ("core.detector.check",
     "repro.core.detector.timing:TimingPolicy.judge", True, None),
    ("core.detector.check",
     "repro.core.detector.omission:BlameTracker.add_declaration",
     True, None),
    ("core.detector.check",
     "repro.core.detector.omission:BlameTracker.newly_attributable",
     True, None),
    ("core.evidence.note",
     "repro.core.evidence.distributor:EvidenceLog.note_evidence",
     True, None),
    ("core.evidence.note",
     "repro.core.evidence.distributor:EvidenceLog.note_declaration",
     True, None),
    ("core.evidence.evaluate",
     "repro.core.evidence.distributor:EvidenceLog.evaluate_evidence",
     True, None),
    ("core.evidence.evaluate",
     "repro.core.evidence.distributor:EvidenceLog.evaluate_declaration",
     True, None),
    ("core.modes.switch",
     "repro.core.modes.switcher:ModeSwitcher.on_implicated", True, None),
    ("core.modes.switch", "repro.core.modes.switcher:ModeSwitcher.adopt",
     True, None),
    ("core.modes.switch", "repro.core.modes.transition:compute_transition",
     True, None),
    ("core.planner.place", "repro.core.planner.placement:place", True, None),
    ("core.planner.augment", "repro.core.planner.augment:augment",
     True, None),
    ("sched.synthesize", "repro.sched.synthesis:synthesize", True, None),
    ("mc.cell", "repro.mc.explorer:explore_cell", True, None),
    ("mc.check_path", "repro.mc.invariants:check_path", True, None),
    ("mc.fingerprint", "repro.mc.explorer:state_fingerprint", True, None),
    ("fuzz.mutate", "repro.fuzz.mutate:mutate_script", True, None),
    ("fuzz.fitness", "repro.fuzz.fitness:fitness_vector", True, None),
    ("fuzz.fitness", "repro.fuzz.fitness:coverage_keys", True, None),
]


def _program_namespaces() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def install(tracer: Tracer, fine: bool) -> List[str]:
    """Install one set of wrappers; returns the targets not found."""
    missing: List[str] = []
    namespaces = _program_namespaces()
    for span, target, is_fine, observe in TARGETS:
        if is_fine != fine:
            continue
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(target)
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(target)
                continue
            setattr(owner, attr, wrap(original, span, tracer, fine, observe))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(target)
            continue
        wrapper = wrap(original, span, tracer, fine, observe)
        for namespace in namespaces:
            if vars(namespace).get(attr) is original:
                setattr(namespace, attr, wrapper)
    return missing


"""The four closed-loop workloads: inputs, ops and output checks.

One client, one process, one thread. Every workload has a short list of
*cases* (scenarios, deployments, campaign seeds); a *round* is one pass
over that list in a seeded order, and the benchmark always measures
whole rounds, so every run executes the same mix whatever ``--seed``
is. Per op the seed also draws the run seed and the fault offset from
small fixed sets. The program only ever sees the generated inputs.

Because cases, run seeds and offsets are fixed sets, the distinct op
inputs form a finite pool that does not depend on ``--seed``:
``golden.json`` holds the expected output of every input in the pool,
and every op of every run is compared against it, on top of the
invariants in each workload's ``check``.

Ops call the program through module attributes (``obs.export_run``,
never ``from repro.obs import export_run``) so the span wrappers that
``layers.install`` puts into those modules are the ones that run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
from typing import Dict, Iterator, List, Tuple

import repro
from repro import analysis, faults, fuzz, mc, net, obs, perf
from repro import workload as dataflow
from repro.core import planner
from repro.verify import bounds as static_bounds


def make_config(**wanted):
    """A ``BTRConfig`` from the fields it still has.

    The benchmark outlives the flags it sets today: when a refactor
    deletes ``batched_core`` or ``runtime_fastpath`` because that path
    became the only one, the benchmark must keep running unedited.
    """
    known = {f.name for f in dataclasses.fields(repro.BTRConfig)}
    return repro.BTRConfig(**{k: v for k, v in wanted.items()
                              if k in known})


def sha(payload) -> str:
    """SHA-256 of the sorted-key JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class OpInput:
    case: str
    run_seed: int
    offset_us: int

    @property
    def key(self) -> str:
        return f"{self.case}/s{self.run_seed}/o{self.offset_us}"


def _shifted(scenario, offset_us: int):
    """The staged scenario with every fault moved ``offset_us`` later."""
    script = faults.FaultScript([
        dataclasses.replace(injection, time=injection.time + offset_us)
        for injection in scenario.script])
    links = [(at + offset_us, link, loss)
             for at, link, loss in scenario.link_script]
    return script, links or None


def _run_observed(system, result, timelines, verdict) -> dict:
    return {
        "fingerprint": mc.state_fingerprint(result),
        "events": system.sim.events_executed,
        "kinds": result.trace.kind_counts(),
        "holds": verdict.holds,
        "recovery_us": [t.total_us for t in timelines],
    }


def _timeline_problems(inp: OpInput, observed: dict, timelines,
                       bounds_report) -> List[str]:
    problems = []
    for t in timelines:
        if t.phase_sum() != t.total_us:
            problems.append(f"{inp.key}: phase spans of {t.node} sum to "
                            f"{t.phase_sum()}, recovery is {t.total_us}")
    dominance = static_bounds.check_timelines(bounds_report, timelines)
    if not dominance.ok:
        problems.append(f"{inp.key}: static bound does not dominate: "
                        f"{dominance.violations[0]}")
    # A dead link is outside the node-fault model: nothing is convicted
    # and Definition 3.1 is expected not to hold (E16).
    if observed["holds"] != (inp.case != "link_death"):
        problems.append(f"{inp.key}: Definition 3.1 holds="
                        f"{observed['holds']}")
    return problems


class Workload:
    name = ""
    op_is = ""
    cases: Tuple[str, ...] = ()
    run_seeds: Tuple[int, ...] = (0,)
    offsets_us: Tuple[int, ...] = (0,)

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def setup(self) -> None:
        """Untimed per-process preparation (part of ``setup_s``)."""

    def reset(self) -> None:
        """Untimed work before each op."""

    def op(self, inp: OpInput):
        """The timed operation; returns ``(observed, detail)``."""
        raise NotImplementedError

    def check(self, inp: OpInput, observed: dict, detail) -> List[str]:
        """Untimed invariants; returns the problems found."""
        raise NotImplementedError

    def pool(self) -> List[OpInput]:
        return [OpInput(case, seed, offset) for case in self.cases
                for seed in self.run_seeds for offset in self.offsets_us]

    def rounds(self, seed: int) -> Iterator[List[OpInput]]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            order = list(self.cases)
            rng.shuffle(order)
            yield [OpInput(case, rng.choice(self.run_seeds),
                           rng.choice(self.offsets_us)) for case in order]


class SweepBatchedN15(Workload):
    name = "sweep_batched_n15"
    op_is = ("one seed of a sweep: sibling_system off a prepared "
             "industrial/fullmesh:15/f=1 system (batched, milestones), "
             "stage, run(30), reconstruct, verdict, fingerprint")
    cases = ("single_commission", "checker_host_crash", "single_crash",
             "single_omission")
    run_seeds = (41, 42, 43)
    offsets_us = (0, 10_000, 25_000)
    n_periods = 30

    def setup(self) -> None:
        self.proto = repro.BTRSystem(
            dataflow.industrial_workload(),
            net.full_mesh_topology(15, bandwidth=1e8),
            make_config(f=1, seed=self.run_seeds[0], planner_jobs=1,
                        batched_core=True, trace_mode="milestones"))
        self.proto.prepare()
        self.bounds = static_bounds.compute_bounds(
            self.proto.strategy, self.proto.topology,
            self.proto.lane_model, self.proto.config,
            budget=self.proto.budget)

    def op(self, inp: OpInput):
        system = perf.sibling_system(self.proto, inp.run_seed)
        script, links = _shifted(faults.stage(inp.case, system),
                                 inp.offset_us)
        result = system.run(self.n_periods, adversary=script,
                            link_script=links)
        timelines = obs.reconstruct_timelines(result)
        verdict = analysis.btr_verdict(result,
                                       R_us=system.budget.total_us)
        return _run_observed(system, result, timelines, verdict), timelines

    def check(self, inp, observed, timelines):
        return _timeline_problems(inp, observed, timelines, self.bounds)


class FullTraceN7(Workload):
    name = "full_trace_n7"
    op_is = ("fresh industrial/fullmesh:7 system, prepare() through a "
             "warm strategy cache, run(60) with a full trace, then "
             "reconstruct, attribute, timeline, export, load, render")
    #: scenario -> fault budget it needs.
    scenarios = {
        "single_commission": 1, "flood_plus_fault": 2, "link_death": 1,
        "rogue_clock": 1, "paced_double": 2, "checker_host_crash": 1,
        "single_omission": 1,
    }
    cases = tuple(scenarios)
    run_seeds = (3, 5, 8)
    offsets_us = (0, 10_000, 25_000)
    n_periods = 60

    def _system(self, f: int, seed: int):
        return repro.BTRSystem(
            dataflow.industrial_workload(),
            net.full_mesh_topology(7, bandwidth=1e8),
            make_config(f=f, seed=seed, planner_jobs=1,
                        cache=self.cache_dir, trace_mode="full"))

    def setup(self) -> None:
        self.cache_dir = os.path.join(self.out_dir, f"cache-{self.name}")
        self.report_path = os.path.join(self.out_dir,
                                        f"obs-{self.name}.json")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.bounds = {}
        for f in sorted(set(self.scenarios.values())):
            for seed in self.run_seeds:
                system = self._system(f, seed)
                system.prepare()
            self.bounds[f] = static_bounds.compute_bounds(
                system.strategy, system.topology, system.lane_model,
                system.config, budget=system.budget)

    def op(self, inp: OpInput):
        system = self._system(self.scenarios[inp.case], inp.run_seed)
        budget = system.prepare()
        script, links = _shifted(faults.stage(inp.case, system),
                                 inp.offset_us)
        result = system.run(self.n_periods, adversary=script,
                            link_script=links)
        timelines = obs.reconstruct_timelines(result)
        attribution = [obs.budget_attribution(t, budget)
                       for t in timelines]
        verdict = analysis.btr_verdict(result, R_us=budget.total_us)
        narrative = analysis.render_timeline(result)
        obs.export_run(result, self.report_path, timelines=timelines)
        rendered = obs.render_phase_report(
            obs.load_report(self.report_path))
        observed = _run_observed(system, result, timelines, verdict)
        return observed, (system, timelines, attribution, narrative,
                          rendered)

    def check(self, inp, observed, detail):
        system, timelines, attribution, narrative, rendered = detail
        problems = _timeline_problems(
            inp, observed, timelines, self.bounds[system.config.f])
        if not system.plan_stats.cache_hit:
            problems.append(f"{inp.key}: strategy cache was not warm")
        if len(attribution) != len(timelines) or not narrative \
                or "Recovery phase breakdown" not in rendered:
            problems.append(f"{inp.key}: report rendering incomplete")
        return problems


class ColdPlanF2(Workload):
    name = "cold_plan_f2"
    op_is = ("build workload + topology, prepare(strict=True) against an "
             "empty cache dir (miss, plan, verify, store), compute_bounds, "
             "strategy_to_json, at f=2")
    #: case -> (workload builder name, full-mesh size).
    deployments = {
        "avionics@8": ("avionics_workload", 8),
        "industrial@10": ("industrial_workload", 10),
        "industrial@12": ("industrial_workload", 12),
        "power_grid@9": ("power_grid_workload", 9),
        "automotive@9": ("automotive_workload", 9),
    }
    cases = tuple(deployments)
    run_seeds = (0, 1, 2)

    def setup(self) -> None:
        self.cache_dir = os.path.join(self.out_dir, f"cache-{self.name}")

    def reset(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def op(self, inp: OpInput):
        builder, n_nodes = self.deployments[inp.case]
        system = repro.BTRSystem(
            getattr(dataflow, builder)(),
            net.full_mesh_topology(n_nodes, bandwidth=1e8),
            make_config(f=2, seed=inp.run_seed, planner_jobs=1,
                        cache=self.cache_dir))
        budget = system.prepare(strict=True)
        report = static_bounds.compute_bounds(
            system.strategy, system.topology, system.lane_model,
            system.config, budget=budget)
        artifact = planner.strategy_to_json(system.strategy)
        observed = {
            "plans": len(system.strategy),
            "artifact_bytes": len(artifact),
            "artifact_sha": hashlib.sha256(artifact.encode()).hexdigest(),
            "budget_us": budget.total_us,
            "bounds_sha": sha(report.to_dict()),
        }
        return observed, (system, report, artifact)

    def check(self, inp, observed, detail):
        system, report, artifact = detail
        problems = []
        stats = system.plan_stats
        if stats.cache_hit:
            problems.append(f"{inp.key}: cache dir was not empty")
        with open(perf.StrategyCache(self.cache_dir)
                  .path_for(stats.cache_key)) as fh:
            if fh.read() != artifact:
                problems.append(f"{inp.key}: stored cache entry differs "
                                f"from the serialised strategy")
        if report.exceeding():
            problems.append(f"{inp.key}: static bound exceeds the budget")
        return problems


class SearchN4(Workload):
    name = "search_n4"
    op_is = ("one search round on pipeline/fullmesh:4/f=1: the E18 "
             "certify campaign, then the E20 fuzz campaign at R=30ms, "
             "both with the round's seed")
    cases = ("c0", "c1")
    meta = {"workload": "pipeline", "topology": "fullmesh:4",
            "bandwidth": 1e8, "f": 1, "seed": 0}

    def op(self, inp: OpInput):
        seed = int(inp.case[1:])
        mc_report, _ = mc.run_campaign(
            dataflow.pipeline_workload(),
            net.full_mesh_topology(4, bandwidth=1e8),
            make_config(f=1),
            mc.CheckParams(kinds=("crash", "commission"), ticks=2,
                           max_depth=2, branch=3, max_paths=120,
                           workers=1, seed=seed))
        fuzz_report, _ = fuzz.run_fuzz_campaign(
            dataflow.pipeline_workload(),
            net.full_mesh_topology(4, bandwidth=1e8),
            make_config(f=1),
            fuzz.FuzzParams(kinds=("crash", "commission", "omission",
                                   "timing"),
                            ticks=2, generations=4, batch=8, elite=4,
                            R_us=30_000, workers=1, seed=seed),
            meta=dict(self.meta))
        artifacts = fuzz_report["counterexamples"]
        observed = {
            "mc_sha": sha(mc_report),
            "fuzz_sha": sha(fuzz_report),
            "certified": mc_report["certified"],
            "found": fuzz_report["found"],
            "replay_confirmed": all(a["replay_confirmed"]
                                    for a in artifacts),
            "paths": mc_report["totals"]["paths"],
            "scripts": fuzz_report["evaluated"],
        }
        return observed, None

    def check(self, inp, observed, detail):
        problems = []
        if not observed["certified"]:
            problems.append(f"{inp.key}: mc campaign did not certify")
        if not (observed["found"] and observed["replay_confirmed"]):
            problems.append(f"{inp.key}: fuzz found={observed['found']} "
                            f"replay_confirmed="
                            f"{observed['replay_confirmed']}")
        return problems


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (SweepBatchedN15, FullTraceN7, ColdPlanF2, SearchN4)
}

"""Committed digests: references generated by code that no longer runs.

``engine_digests.json`` holds, per (scenario, topology, workload, f,
n_periods, seed) cell, the full-trace fingerprint, the ``events_executed``
gauge and the event census of a run. It was generated by the per-message
legacy path before that path was deleted (HACKING.md records the sha and
invocation); the byte-identity tests and E17 assert the engine against
it.

``planner_digests.json`` plays the same role for the offline half: per
(workload, topology, f) cell, SHA-256 of the ``strategy_to_json``
artifact, the recovery budget, and SHA-256 of the ``compute_bounds`` and
``verify_strategy`` reports — multi-hop topologies included, which no
other committed file pins. It was generated by the planner at 3e48eeb,
before the offline hot paths were rewritten.

``baseline_digests.json`` pins the five baseline systems the same way
the engine file pins BTR: per (baseline, fault, topology) cell, the
full-trace fingerprint, ``events_executed`` and the event census, over
one single-hop and two multi-hop topologies. It was generated by the
baselines' own transmit path (``Link.transmit``) before they moved onto
the shared hop runtime.

``python -m tests.golden [engine|planner|baseline]`` re-runs every cell
on the current code, one worker process per core, and verifies it; an
engine cell's :func:`engine_job` also runs it in ``milestones`` mode,
checked against the same entry's :func:`census` and the per-cell facts
of :func:`broken_facts`. A cell that differs prints what moved
(:func:`moved`, :func:`first_difference`). With ``--write SOURCE`` it
rewrites the file instead — only ever with a CHANGES.md line saying why
the observable behaviour was meant to change.
"""

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from typing import NamedTuple, Optional

from repro import BTRConfig, BTRSystem, Deployment
from repro.baselines import BASELINES
from repro.core.planner import PlanningError, strategy_to_json
from repro.faults import single_fault
from repro.faults.scenarios import stage
from repro.net import topology_from_spec
from repro.perf import WorkerPool
from repro.sim.trace import MILESTONE_KINDS, trace_fingerprint
from repro.verify import verify_strategy
from repro.verify.bounds import compute_bounds
from repro.workload import WORKLOADS, stretched_workload

PATH = os.path.join(os.path.dirname(__file__), "engine_digests.json")
PLANNER_PATH = os.path.join(os.path.dirname(__file__),
                            "planner_digests.json")
BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "baseline_digests.json")

#: Scenario name of the cell run without faults under :func:`delay_n0`.
HOOKED = "fault_free+delay_n0"

_KEY = re.compile(r"(?P<scenario>.+)@(?P<kind>fullmesh|geo)(?P<shape>[\dx]+)"
                  r"/industrial(?:x(?P<stretch>\d+))?"
                  r"/f(?P<f>\d+)/p(?P<periods>\d+)/s(?P<seed>\d+)")


def delay_n0(sender: str, receiver: str, arrival: int) -> int:
    """The delay-only delivery hook of the :data:`HOOKED` cell."""
    return arrival + (1 if sender.endswith("n0") else 0)


def cell_key(system, scenario: str, n_periods: int, seed=None) -> str:
    """``seed`` names a sweep sibling of ``system`` (default: its own)."""
    if seed is None:
        seed = system.config.seed
    return (f"{scenario}@{system.topology.name}/{system.workload.name}"
            f"/f{system.config.f}/p{n_periods}/s{seed}")


def digest(system, result) -> dict:
    return {
        "fingerprint": trace_fingerprint(result.trace),
        "events_executed": system.sim.events_executed,
        "kind_counts": result.trace.kind_counts(),
    }


@functools.lru_cache(maxsize=None)
def _committed(path: str = PATH) -> dict:
    """The ``cells`` of a digest file; ``ValueError`` unless the file is
    an object whose ``cells`` object maps each key to an object."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    cells = data.get("cells")
    if not isinstance(cells, dict):
        raise ValueError('no "cells" object')
    for key, cell in cells.items():
        if not isinstance(cell, dict):
            raise ValueError(f"cell {key!r} is not an object")
    return cells


def expected(key: str) -> dict:
    return _committed()[key]


def milestone_reprs(trace) -> list:
    """The milestone-kind subsequence a ``milestones``-mode trace of the
    same run must equal, event for event."""
    return [repr(e) for e in trace if type(e) in MILESTONE_KINDS]


def assert_matches(system, result, scenario: str) -> None:
    """The finished full-trace run equals its committed digest."""
    key = cell_key(system, scenario, result.n_periods)
    assert digest(system, result) == expected(key), key


def census(digest: dict) -> dict:
    """The part of a cell's digest every trace mode must reproduce: a
    ``milestones`` trace keeps no hops, so its fingerprint differs, but
    its ``events_executed`` gauge and event census may not."""
    return {key: digest[key] for key in ("events_executed", "kind_counts")}


class Cell(NamedTuple):
    """What an engine cell key names: ``scenario`` run for ``n_periods``
    on ``deployment``."""

    scenario: str
    deployment: Deployment
    n_periods: int


def parse_cell(key: str) -> Cell:
    m = _KEY.fullmatch(key)
    deployment = Deployment("industrial", f"{m['kind']}:{m['shape']}",
                            f=int(m["f"]), seed=int(m["seed"]),
                            stretch=int(m["stretch"] or 1))
    return Cell(m["scenario"], deployment, int(m["periods"]))


def run_scenario(system, cell: Cell):
    """Run the prepared ``system`` through ``cell``'s scenario."""
    if cell.scenario == HOOKED:
        return system.run(cell.n_periods, delivery_hook=delay_n0)
    scn = stage(cell.scenario, system)
    return system.run(cell.n_periods, adversary=scn.script,
                      link_script=scn.link_script or None)


def _run(cell: Cell, mode: str):
    """``(system, result)`` of ``cell`` built afresh, run in ``mode``."""
    system = cell.deployment.system(trace_mode=mode)
    system.prepare()
    return system, run_scenario(system, cell)


def run_cell(key: str, mode: str = "full") -> dict:
    """The digest of the cell ``key`` names, built afresh and run in
    trace ``mode``."""
    return digest(*_run(parse_cell(key), mode))


def engine_job(key: str) -> dict:
    """Everything checked of one pinned engine cell, in one worker: its
    full trace's ``digest``, then a ``milestones`` run's, the milestone
    ``events`` of both, and the ``counts`` the per-cell facts
    (:func:`broken_facts`) and E17's table read."""
    cell = parse_cell(key)
    system, result = _run(cell, "full")
    full_events = []

    def teed():
        # One pass for the fingerprint and the milestone events: a geo:4x30
        # cell's 6.5 M rows take longer to walk than to simulate.
        for event in result.trace:
            if type(event) in MILESTONE_KINDS:
                full_events.append(repr(event))
            yield event

    found = {"fingerprint": trace_fingerprint(teed()),
             "events_executed": system.sim.events_executed,
             "kind_counts": result.trace.kind_counts()}
    full_rows = len(result.trace)
    full_deferred = system.batch_runtime.stats()["deferred_refloods"]
    del system, result  # millions of rows at geo scale
    system, result = _run(cell, "milestones")
    memo = system.directory.verify_memo.stats()
    batch = system.batch_runtime.stats()
    return {
        "digest": found,
        "milestones": digest(system, result),
        "events": {"full": full_events,
                   "milestones": milestone_reprs(result.trace)},
        "counts": {
            "n_nodes": len(system.topology.nodes),
            "trace_events_full": full_rows,
            "trace_events_milestones": len(result.trace),
            "verifies": system.directory.verifies,
            **{f"memo_{k}": memo[k] for k in ("hits", "misses", "hit_rate")},
            **{k: batch[k] for k in ("batches_fired", "entries_batched",
                                     "deferred_refloods")},
            "deferred_refloods_full": full_deferred,
        },
    }


def first_difference(full: list, milestones: list) -> Optional[str]:
    """Where a milestones run's milestone events first leave the full
    trace's (index, both events) or how many more it has; None if equal."""
    for index, (want, got) in enumerate(zip(full, milestones)):
        if want != got:
            return f"milestone event {index}: full {want}, milestones {got}"
    extra = len(milestones) - len(full)
    return f"milestones run has {extra:+d} milestone events" if extra else None


def broken_facts(key: str, job: dict) -> list:
    """One ``key: …`` line per per-cell fact the :func:`engine_job` result
    breaks: a milestones run keeps the committed :func:`census` (the line
    says what moved) and the full trace's milestone events, in under a
    quarter of its rows; the verify memo hits, and every miss is
    a real verification; batches coalesce (or the emitters degenerated
    to one event per message); settled re-floods are deferred on the
    milestones run, except under the :data:`HOOKED` cell's delivery hook
    (which turns deferral off), and never on the full trace."""
    c = job["counts"]
    deferred, rows = c["deferred_refloods"], c["trace_events_milestones"]
    moved_at = first_difference(job["events"]["full"],
                                job["events"]["milestones"])
    facts = [
        (moved_at is None, moved_at),
        (rows < 0.25 * c["trace_events_full"], f"{rows} milestone rows, "
         f"not under a quarter of the full trace's {c['trace_events_full']}"),
        (c["memo_hits"] > 0, "verify memo never hit"),
        (c["verifies"] >= c["memo_misses"], f"{c['memo_misses']} memo "
         f"misses but {c['verifies']} verifications"),
        (c["batches_fired"] < c["entries_batched"], f"{c['batches_fired']} "
         f"batches fired for {c['entries_batched']} entries"),
        (c["deferred_refloods_full"] == 0, f"{c['deferred_refloods_full']} "
         f"re-floods deferred on the full trace"),
        (deferred == 0, f"{deferred} re-floods deferred under the delivery "
         f"hook") if parse_cell(key).scenario == HOOKED else
        (deferred > 0, "no settled re-flood deferred"),
    ]
    return compare({key: census(job["milestones"])},
                   {key: census(expected(key))}) + [
        f"{key}: {line}" for holds, line in facts if not holds]


def engine_keys() -> list:
    """The engine grid by committed ``events_executed``, largest first:
    handed out in that order, no worker is left with a long tail."""
    return sorted(_committed(), key=lambda key: -expected(key)[
        "events_executed"])


# ------------------------------------------------------ planner digests

#: The planner grid. Every multi-hop family the builders offer, plus one
#: full mesh as the cell the e2e goldens already cover from another side.
#: Geo cells stretch the workload x10, as E17's do: a 5 ms WAN hop does
#: not fit the domain workloads' native periods.
PLANNER_TOPOLOGIES = ("ring:6", "line:5", "mesh:3x3", "dualstar:5",
                      "geo:2x4", "fullmesh:6")
PLANNER_KEYS = tuple(
    f"{workload}{'x10' if topology.startswith('geo') else ''}"
    f"@{topology}/f{f}"
    for workload in sorted(WORKLOADS)
    for topology in PLANNER_TOPOLOGIES for f in (1, 2))
_PLANNER_KEY = re.compile(r"(?P<workload>[a-z_]+?)(?:x(?P<stretch>\d+))?"
                          r"@(?P<topology>[\w:]+)/f(?P<f>\d+)")

#: A cell whose deployment cannot be planned is pinned as such, by name.
UNSCHEDULABLE = {"unschedulable": True}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def planner_system(key: str, **config) -> BTRSystem:
    """The prepared deployment the planner cell ``key`` names; ``config``
    picks how the strategy is obtained (cache), never what it is."""
    m = _PLANNER_KEY.fullmatch(key)
    workload = stretched_workload(WORKLOADS[m["workload"]](),
                                  int(m["stretch"] or 1))
    system = BTRSystem(workload, topology_from_spec(m["topology"], 1e8),
                       BTRConfig(f=int(m["f"]), **config))
    system.prepare()
    return system


def planner_digest(system) -> dict:
    bounds = compute_bounds(system.strategy, system.topology,
                            system.lane_model, system.config,
                            budget=system.budget)
    report = verify_strategy(system.strategy, system.topology,
                             config=system.config,
                             lane_model=system.lane_model)
    return {
        "artifact_sha": _sha(strategy_to_json(system.strategy)),
        "budget_us": system.budget.total_us,
        "bounds_sha": _sha(json.dumps(bounds.to_dict(), sort_keys=True)),
        "verify_sha": _sha("\n".join(str(f) for f in report.findings)),
    }


def expected_plan(key: str) -> dict:
    return _committed(PLANNER_PATH)[key]


def run_planner_cell(key: str) -> dict:
    try:
        return planner_digest(planner_system(key))
    except PlanningError:
        return UNSCHEDULABLE


# ----------------------------------------------------- baseline digests

#: The baseline grid: every baseline × a full mesh and two multi-hop
#: topologies (where baselines forward data hop by hop) × no fault / one
#: commission / one crash, industrial workload, f=1, 24 periods, seed 42.
BASELINE_TOPOLOGIES = ("fullmesh:7", "ring:6", "mesh:3x3")
BASELINE_FAULTS = ("none", "commission", "crash")
BASELINE_KEYS = tuple(
    f"{name}/{fault}@{topology}/industrial/f1/p24/s42"
    for name in sorted(BASELINES)
    for topology in BASELINE_TOPOLOGIES for fault in BASELINE_FAULTS)
_BASELINE_KEY = re.compile(r"(?P<name>\w+)/(?P<fault>\w+)@(?P<topology>[\w:]+)"
                           r"/(?P<workload>\w+)/f(?P<f>\d+)/p(?P<periods>\d+)"
                           r"/s(?P<seed>\d+)")
#: When the faulted cells inject (period 4 of 50 ms periods).
BASELINE_FAULT_AT = 220_000


def expected_baseline(key: str) -> dict:
    return _committed(BASELINE_PATH)[key]


def run_baseline_cell(key: str) -> dict:
    m = _BASELINE_KEY.fullmatch(key)
    system = BASELINES[m["name"]](WORKLOADS[m["workload"]](),
                                  topology_from_spec(m["topology"], 1e8),
                                  f=int(m["f"]), seed=int(m["seed"]))
    try:
        system.prepare()
    except ValueError:
        return UNSCHEDULABLE
    script = (None if m["fault"] == "none"
              else single_fault(system, m["fault"],
                                at=BASELINE_FAULT_AT).script)
    return digest(system, system.run(int(m["periods"]), script))


# ------------------------------------------------------------ the files

#: name -> (path, how one cell is recomputed, which cells the file holds:
#: the engine file is its own grid, the planner and baseline grids are
#: the ones above). An engine cell's job returns more than its digest.
FILES = {
    "engine": (PATH, engine_job, engine_keys),
    "planner": (PLANNER_PATH, run_planner_cell, lambda: PLANNER_KEYS),
    "baseline": (BASELINE_PATH, run_baseline_cell, lambda: BASELINE_KEYS),
}


def write(path: str, cells: dict, source: str) -> None:
    """One cell per line, sorted, so regenerations diff cell by cell."""
    body = ",\n".join(
        f"    {json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells))
    with open(path, "w") as f:
        f.write('{\n  "schema": 1,\n  "source": %s,\n  "cells": {\n%s\n'
                '  }\n}\n' % (json.dumps(source), body))


def moved(found: Optional[dict], committed: Optional[dict]) -> str:
    """What moved between a recomputed cell and its committed digest: the
    ``events_executed`` delta and each census kind's, or "census equal,
    fingerprint differs"; for a digest without a census (planner cells),
    the fields that differ."""
    if committed is None or found is None:
        return ("no committed digest" if committed is None
                else "not in the grid")
    if "kind_counts" not in found or "kind_counts" not in committed:
        return "differs in " + ", ".join(sorted(
            key for key in set(found) | set(committed)
            if found.get(key) != committed.get(key)))
    new, old = found["kind_counts"], committed["kind_counts"]
    deltas = [("events_executed",
               found["events_executed"] - committed["events_executed"])]
    deltas += [(kind, new.get(kind, 0) - old.get(kind, 0))
               for kind in sorted(set(new) | set(old))]
    return (", ".join(f"{name} {delta:+d}" for name, delta in deltas
                      if delta)
            or "census equal, fingerprint differs")


def compare(cells: dict, committed: dict) -> list:
    """One line per cell that differs: its key and what moved."""
    return [f"{key}: {moved(cells.get(key), committed.get(key))}"
            for key in sorted(set(cells) | set(committed))
            if cells.get(key) != committed.get(key)]


def recompute(run, keys) -> dict:
    """``{key: run(key)}``, the cells spread over one worker per core
    (no more workers than cells: a forking pool starts them all)."""
    keys = list(keys)
    workers = min(len(keys), os.cpu_count() or 1)
    with WorkerPool(lambda _, key: run(key), None, workers=workers) as pool:
        return dict(zip(keys, pool.map(keys)))


def main() -> None:
    """``python -m tests.golden [engine|planner|baseline]``: verify every
    cell of the named file, or of all of them (exit 1 on a mismatch, 2
    on a digest file it cannot read).
    With ``--write SOURCE``: rewrite instead, with SOURCE (sha + why the
    digests were meant to change) as the file's origin."""
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    parser.add_argument("file", nargs="?", choices=sorted(FILES),
                        help="the digest file to check (default: all)")
    parser.add_argument("--write", metavar="SOURCE")
    args = parser.parse_args()
    if args.write and not args.file:
        parser.error("--write regenerates one file: name it")
    names = [args.file] if args.file else list(FILES)
    # Read every file to compare (and the engine file, which is its own
    # grid) before recomputing any cell.
    for name in names:
        path = FILES[name][0]
        if not args.write or name == "engine":
            try:
                _committed(path)
            except (OSError, ValueError) as exc:
                print(f"tests.golden: cannot read {path}: {exc}",
                      file=sys.stderr)
                raise SystemExit(2)
    failed = False
    for name in names:
        path, run, keys = FILES[name]
        cells = recompute(run, keys())
        if name == "engine":
            jobs, cells = cells, {key: job["digest"] for key, job in
                                  cells.items()}
        if args.write:
            write(path, cells, args.write)
            print(f"{name}: {len(cells)} cells written")
            continue
        changed = compare(cells, _committed(path))
        print(f"{name}: {len(cells)} cells, {len(changed)} differ",
              *changed, sep="\n")
        failed = failed or bool(changed)
        if name == "engine":
            # Sweeps, mc and fuzz run in ``milestones``: the same cells
            # there must keep the committed gauge and census, and every
            # per-cell fact must hold.
            problems = [broken_facts(key, job)
                        for key, job in sorted(jobs.items())]
            print(f"engine (milestones): {len(jobs)} cells, "
                  f"{sum(map(bool, problems))} differ",
                  *(line for lines in problems for line in lines),
                  sep="\n")
            failed = failed or any(problems)
    if failed:
        raise SystemExit(1)

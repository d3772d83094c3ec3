"""Committed engine digests: the reference role the deleted legacy
transmit/heap path used to play.

``engine_digests.json`` holds, per (scenario, topology, workload, f,
n_periods, seed) cell, the full-trace fingerprint, the ``events_executed``
gauge and the event census of a run. It was generated by the per-message
legacy path before that path was deleted (HACKING.md records the sha and
invocation); the byte-identity tests and E17/E19/E22 assert the engine
against it. ``python -m tests.golden`` re-runs every cell in the file on
the current engine and verifies it; given a SOURCE argument it rewrites
the file instead — only ever with a CHANGES.md line saying why the
observable behaviour was meant to change.
"""

import functools
import json
import os
import re
import sys

from repro import BTRConfig, BTRSystem
from repro.faults.scenarios import stage
from repro.net import full_mesh_topology, geo_topology
from repro.perf.fastpath import trace_fingerprint
from repro.sim.trace import MILESTONE_KINDS
from repro.workload import industrial_workload, stretched_workload

PATH = os.path.join(os.path.dirname(__file__), "engine_digests.json")

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
def _committed() -> dict:
    with open(PATH) as f:
        return json.load(f)["cells"]


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


def run_cell(key: str) -> dict:
    """Rebuild the cell ``key`` names from scratch, run it, digest it."""
    m = _KEY.fullmatch(key)
    shape = [int(n) for n in m["shape"].split("x")]
    topology = (geo_topology(*shape, bandwidth=1e8) if m["kind"] == "geo"
                else full_mesh_topology(*shape, bandwidth=1e8))
    workload = industrial_workload()
    if m["stretch"]:
        workload = stretched_workload(workload, int(m["stretch"]))
    system = BTRSystem(workload, topology,
                       BTRConfig(f=int(m["f"]), seed=int(m["seed"])))
    system.prepare()
    if m["scenario"] == HOOKED:
        result = system.run(int(m["periods"]), delivery_hook=delay_n0)
    else:
        scn = stage(m["scenario"], system)
        result = system.run(int(m["periods"]), adversary=scn.script,
                            link_script=scn.link_script or None)
    return digest(system, result)


def write(cells: dict, source: str) -> None:
    """One cell per line, sorted, so regenerations diff cell by cell."""
    body = ",\n".join(
        f"    {json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells))
    with open(PATH, "w") as f:
        f.write('{\n  "schema": 1,\n  "source": %s,\n  "cells": {\n%s\n'
                '  }\n}\n' % (json.dumps(source), body))


def main() -> None:
    """``python -m tests.golden``: verify every cell (exit 1 on a
    mismatch). ``python -m tests.golden SOURCE``: rewrite the file, with
    SOURCE (sha + why the digests were meant to change) as its origin."""
    committed = _committed()
    cells = {key: run_cell(key) for key in sorted(committed)}
    changed = [key for key in cells if cells[key] != committed[key]]
    print(f"{len(cells)} cells, {len(changed)} differ", *changed, sep="\n")
    if len(sys.argv) > 1:
        write(cells, sys.argv[1])
    elif changed:
        raise SystemExit(1)

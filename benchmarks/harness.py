"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one experiment from DESIGN.md §3: it runs the
system(s), renders the experiment's table or series with
:mod:`repro.analysis.reporting`, writes it to ``benchmarks/results/``, and
asserts the qualitative shape of the paper's claim. Timing is reported via
pytest-benchmark (single round — the experiments are deterministic, so
statistical repetition buys nothing).
"""

from __future__ import annotations

import dataclasses
import os
import sys
from typing import Optional

# The committed engine digests (and their helpers) live with the tier-1
# tests; bare ``pytest benchmarks/`` does not put the repo root on the
# path the way ``python -m pytest`` does.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from repro import BTRConfig, BTRSystem
from repro.net import full_mesh_topology
from repro.perf.timing import append_jsonl
from repro.workload import industrial_workload
from tests import golden  # noqa: F401  (re-exported to E17)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Standard single-fault time for the 50 ms industrial workload.
FAULT_AT = 220_000


def smoke() -> bool:
    """Whether ``REPRO_SWEEP=smoke`` asked for the reduced sweeps."""
    return os.environ.get("REPRO_SWEEP") == "smoke"


def stats_path(stream: str) -> str:
    """The scratch jsonl one benchmark stream's rows are appended to."""
    return os.path.join(RESULTS_DIR, f"{stream}_stats.jsonl")


def record(stream: str, row: dict, label: Optional[str] = None) -> None:
    """Append one measurement row to ``results/<stream>_stats.jsonl``.

    ``tools/run_experiments.py`` clears the streams before a suite run
    and folds each into its ``BENCH_<stream>.json`` trajectory
    afterwards, as its stream table says (docs/HACKING.md, "Benchmark
    pipeline").
    """
    if label is None:
        label = os.environ.get("PYTEST_CURRENT_TEST", "adhoc").split(" ")[0]
    append_jsonl(stats_path(stream), {"experiment": label, **row})


def planning_row(system: BTRSystem) -> dict:
    """The ``planner`` row for one ``prepare()``."""
    return dataclasses.asdict(system.plan_stats)


def write_result(name: str, text: str) -> None:
    """Persist an experiment's rendered table for EXPERIMENTS.md."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text)
    print(text)


def one_shot(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its
    result (deterministic experiments need no statistical repetition)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def prepared_btr(workload=None, n_nodes: int = 7, f: int = 1,
                 seed: int = 42, bandwidth: float = 1e8,
                 config: Optional[BTRConfig] = None) -> BTRSystem:
    """A prepared BTR system on a full mesh of ``n_nodes``."""
    workload = workload or industrial_workload()
    topology = full_mesh_topology(n_nodes, bandwidth=bandwidth)
    system = BTRSystem(workload, topology, config or BTRConfig(f=f, seed=seed))
    system.prepare()
    record("planner", planning_row(system))
    return system

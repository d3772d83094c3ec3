"""A strategy comes from the planner: the on-disk strategy cache is
configured nowhere but in the frozen end-to-end benchmark.

``BTRConfig.cache`` and :class:`~repro.perf.StrategyCache` stay only
because ``benchmarks/e2e/`` sets the one and reads entries through the
other. This scan keeps every other caller from growing back: no call in
``src/``, ``tools/`` or ``benchmarks/`` outside ``e2e/`` passes
``cache=``, and only ``prepare()``'s load-or-plan fork constructs a
``StrategyCache``.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tools", "benchmarks")
FROZEN = os.path.join("benchmarks", "e2e")
#: The one constructor of a cache: ``BTRSystem._obtain_strategy``.
OWNER = os.path.join("src", "repro", "core", "runtime", "system.py")


def _sources():
    for top in SCANNED:
        for root, dirs, files in os.walk(os.path.join(REPO, top)):
            rel = os.path.relpath(root, REPO)
            dirs[:] = sorted(d for d in dirs
                             if os.path.join(rel, d) != FROZEN)
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(rel, name)


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def test_no_caller_outside_the_frozen_harness_configures_a_cache():
    scanned, found = 0, []
    for rel in _sources():
        with open(os.path.join(REPO, rel), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), rel)
        scanned += 1
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            where = f"{rel}:{node.lineno}"
            if any(kw.arg == "cache" for kw in node.keywords):
                found.append(f"{where}: passes cache=")
            if _callee(node) == "StrategyCache" and rel != OWNER:
                found.append(f"{where}: constructs StrategyCache")
    assert scanned > 100  # the walk reached the program
    assert found == []

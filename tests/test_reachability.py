"""Nothing in ``src/`` that only tests reach.

Every public function, class, method and module constant under
``src/repro`` must be referenced from a *program path* — ``src/``,
``benchmarks/`` or ``tools/`` — outside its own definition; ``tests/``
does not count. A reference is a name, an attribute, or a
``"module:attr"`` string (how ``benchmarks/e2e/layers.py`` names its
wrap targets); a method is reached only through an attribute or such a
string, never through a bare name that happens to match (a local
variable ``inc`` does not call ``MetricsRegistry.inc``).
Matching is otherwise by name alone, so the census errs toward
"reached": a name it reports really is reached by nothing but tests.

The names in ``KEEP`` stay on purpose, each for the reason given.
"""

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_PATHS = ("src", "benchmarks", "tools")

#: Qualified name -> why it stays although only tests reach it.
KEEP: Dict[str, str] = {
    "random_workload": "property tests draw their workloads from it",
    "random_faults": "property tests draw their fault scripts from it",
    "recovery_bound_for_deadline": "the paper's R = D/f rule",
    "MetricsRegistry.counter_value":
        "read-only accessor: tests read a run's counters through it",
    "MetricsRegistry.gauge_value":
        "read-only accessor: tests read a run's gauges through it",
    "Simulator.pending_events":
        "read-only accessor: tests read the event queue's length",
    "Simulator.peek_next_time":
        "read-only accessor: tests read the next event's time",
    "BlameTracker.charges_against":
        "read-only accessor: tests read the omission charges",
    "plan_to_dict":
        "read-only view: tests clone a shared plan through it before "
        "corrupting the clone",
    "Trace.last":
        "read-only accessor: tests read a run's last event of a kind",
}


def _py_files(top: str) -> Iterator[str]:
    for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__"
                         and not d.endswith(".egg-info"))
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _references(tree: ast.AST) -> Iterator[Tuple[str, int, bool]]:
    """``(name, line, bare)``: ``bare`` marks a plain ``Name``, which
    cannot reach a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and ":" in node.value and " " not in node.value):
            for part in node.value.partition(":")[2].split("."):
                yield part, node.lineno, False


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` for every module-level function, class
    and constant, and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        yield f"{node.name}.{member.name}", member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read(), path)


def test_only_program_paths_keep_names_alive():
    trees = {path: _parse(path)
             for top in PROGRAM_PATHS for path in _py_files(top)}
    reached: Dict[str, List[Tuple[str, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, bare in _references(tree):
            reached.setdefault(name, []).append((path, line, bare))
    unreached: List[str] = []
    kept: Set[str] = set()
    for path in _py_files("src"):
        for qualified, node in _definitions(trees[path]):
            owner, _, name = qualified.rpartition(".")
            if name.startswith("_"):
                continue
            if any(not (where == path
                        and node.lineno <= line <= node.end_lineno)
                   and not (owner and bare)
                   for where, line, bare in reached.get(name, ())):
                continue
            if qualified in KEEP:
                kept.add(qualified)
            else:
                unreached.append(
                    f"{os.path.relpath(path, ROOT)}: {qualified}")
    assert not unreached, (
        "only tests reach these; delete each (with the tests only it "
        "served) or give it a KEEP entry with its reason:\n  "
        + "\n  ".join(unreached))
    assert kept == set(KEEP), (
        "a program path now reaches these, or they are gone; drop them "
        f"from KEEP: {sorted(set(KEEP) - kept)}")

"""No option that only tests set.

``BTRConfig`` keeps a field only when two non-test callers need
different values. The same rule holds for every defaulted parameter of
a public function or method under ``src/repro`` (a class's ``__init__``
counts as the class's): some call in a *program path* — ``src/``,
``benchmarks/`` or ``tools/`` — must set it; ``tests/`` does not count.
A parameter that no program path sets is a constant: delete it, inline
its default, and delete or rewrite the tests that only exercised the
override.

A call sets a parameter by keyword, by position, or through ``*`` /
``**`` (which set every positional / every parameter); an argument that
is the default's own literal (``fast_heap=True`` where the default is
``True``) sets nothing. The callee is resolved by name, as
``test_reachability`` resolves references: ``f(...)`` and ``m.f(...)``
reach every function named ``f`` (also through ``import f as g``),
``C(...)`` and ``m.C(...)`` reach ``C.__init__``, and a method is
reached only through an attribute. A call inside the callee's own body
does not count. Calls through a registry, a parameter, ``cls`` or
``super()`` are not resolved, so what they set needs a ``KEEP``
entry. Dataclass fields are a record's state, not parameters:
only ``def`` signatures are read.

The parameters in ``KEEP`` stay on purpose, each for the reason given;
an entry is named ``callee(parameter)``.
"""

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple

from tests.test_reachability import PROGRAM_PATHS, ROOT, _parse, _py_files

_SPEC_BUILDER = ("parse_topology_spec calls every spec builder as "
                 "builder(*sizes, bandwidth=...)")
_BASELINE = ("cli/compare.py and E3 build every baseline through "
             "BASELINES as cls(workload, topology, f=..., seed=...)")
_PAIN = ("tests/test_baselines.py sweeps this interval: self-stabilising "
         "recovery has no bound, only a choice of which cost to pay")
_DRAWN = "property tests draw their inputs across this size"

#: ``callee(parameter)`` -> why it stays although no program path sets it.
KEEP: Dict[str, str] = {
    "Simulator(fast_heap)":
        "the frozen e2e harness (benchmarks/e2e/probes.py) passes True, "
        "the only value the engine accepts",
    "KeyDirectory(verify_memo)":
        "the frozen e2e harness (benchmarks/e2e/probes.py) passes True, "
        "the only value the directory accepts",
    "AuthenticatedStatement(canonical)":
        "make() constructs through cls(statement, signature, canonical)",
    "run_campaign(meta)":
        "cli/search.py::run_search calls the verb's campaign function "
        "as run(..., meta=...)",
    **{f"{builder}(bandwidth)": _SPEC_BUILDER
       for builder in ("line_topology", "star_topology", "bus_topology",
                       "geo_topology", "dual_star_topology")},
    **{f"{cls}({name})": _BASELINE
       for cls in ("BaselineSystem", "CrashRestartSystem",
                   "SelfStabilizingSystem")
       for name in ("f", "seed")},
    "CrashRestartSystem(watchdog_periods)": _PAIN,
    "CrashRestartSystem(reboot_periods)": _PAIN,
    "SelfStabilizingSystem(reset_every)": _PAIN,
    **{f"pipeline_workload({name})": _DRAWN
       for name in ("n_stages", "period", "wcet", "deadline")},
    "avionics_workload(period)": _DRAWN,
    "automotive_workload(n_wheels)": _DRAWN,
    "power_grid_workload(n_feeders)": _DRAWN,
    **{f"random_workload({name})": _DRAWN
       for name in ("n_tasks", "n_layers", "period")},
    "random_faults(kinds)": _DRAWN,
    "random_faults(min_time)": _DRAWN,
}

#: One defaulted parameter: ``(owner, callee, attribute only, parameter,
#: position, default, definition)``. ``attribute only`` marks a method,
#: which a bare-name call cannot reach; ``position`` is None for a
#: keyword-only parameter.
Option = Tuple[str, str, bool, str, object, ast.expr, ast.AST]


def _defaulted(fn: ast.FunctionDef, bound: bool
               ) -> Iterator[Tuple[str, object, ast.expr]]:
    args = fn.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for i, default in enumerate(args.defaults):
        yield positional[first + i].arg, first + i, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _options(tree: ast.Module) -> Iterator[Option]:
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")):
            for name, position, default in _defaulted(node, False):
                yield (node.name, node.name, False, name, position,
                       default, node)
        elif (isinstance(node, ast.ClassDef)
              and not node.name.startswith("_")):
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name)
                             and d.id == "staticmethod"
                             for d in member.decorator_list)
                if member.name == "__init__":
                    owner, callee, method = node.name, node.name, False
                elif not member.name.startswith("_"):
                    owner = f"{node.name}.{member.name}"
                    callee, method = member.name, True
                else:
                    continue
                for name, position, default in _defaulted(member,
                                                          not static):
                    yield (owner, callee, method, name, position, default,
                           member)


def _calls(tree: ast.Module) -> Iterator[Tuple[str, bool, ast.Call]]:
    """``(callee name, bare, call)``; a bare name is read through the
    module's ``from ... import name as alias`` lines."""
    alias = {a.asname: a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             for a in node.names if a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield alias.get(node.func.id, node.func.id), True, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, False, node


def _literal(node: ast.expr) -> object:
    try:
        return ("value", ast.literal_eval(node))
    except ValueError:
        return ("expression", node)


def _sets(call: ast.Call, name: str, position, default: ast.expr) -> bool:
    for keyword in call.keywords:
        if keyword.arg is None:
            return True
        if keyword.arg == name:
            return _literal(keyword.value) != _literal(default)
    if position is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return True
            if i == position:
                return _literal(arg) != _literal(default)
    return False


def test_only_program_paths_keep_options_alive():
    trees = {path: _parse(path)
             for top in PROGRAM_PATHS for path in _py_files(top)}
    calls: Dict[str, List[Tuple[str, bool, ast.Call]]] = {}
    for path, tree in trees.items():
        for callee, bare, call in _calls(tree):
            calls.setdefault(callee, []).append((path, bare, call))
    unset: List[str] = []
    kept: Set[str] = set()
    for path in _py_files("src"):
        for (owner, callee, method, name, position, default,
             node) in _options(trees[path]):
            if any(not (where == path
                        and node.lineno <= call.lineno <= node.end_lineno)
                   and not (bare and method)
                   and _sets(call, name, position, default)
                   for where, bare, call in calls.get(callee, ())):
                continue
            entry = f"{owner}({name})"
            if entry in KEEP:
                kept.add(entry)
            else:
                unset.append(f"{os.path.relpath(path, ROOT)}: {entry}")
    assert not unset, (
        "no program path sets these; delete each (inline its default, "
        "drop the tests only it served) or give it a KEEP entry with its "
        "reason:\n  " + "\n  ".join(unset))
    assert kept == set(KEEP), (
        "a program path now sets these, or they are gone; drop them "
        f"from KEEP: {sorted(set(KEEP) - kept)}")


def test_no_function_takes_a_router():
    """A topology holds its one router (``Topology.router``), so every
    function that has the topology reads the router from it; a second
    ``router`` argument beside it is a second source."""
    takes = []
    for path in _py_files("src"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                if any(a.arg == "router"
                       for a in args.posonlyargs + args.args
                       + args.kwonlyargs):
                    takes.append(f"{os.path.relpath(path, ROOT)}:"
                                 f"{node.lineno}: {node.name}")
    assert not takes, (
        "read topology.router instead of taking a router:\n  "
        + "\n  ".join(takes))

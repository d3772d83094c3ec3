"""One failure boundary: every artifact a ``repro`` verb reads fails
there, and nowhere else.

The mutation property feeds each verb that reads an artifact — a
strategy (``verify --strategy``), a counterexample (``replay``, ``fuzz
corpus-check``), an observability report (``trace``) — a copy with one
JSON node set to a hostile value or deleted, or the file cut short. The
verb either refuses it (exit 2, one line on stderr) or reads it and
gives its verdict as for any artifact (exit 0 or 1, the verdict on
stdout, nothing on stderr). A mutated artifact may ask a different
question — a counterexample with ``k`` = 10^30 no longer violates, a
corpus entry whose fields moved no longer matches its digest — so the
verdict may differ from the unmutated one; what it may not do is end in
a traceback, or run past a per-example deadline.

The ratchet: no function in ``repro.cli`` but ``main`` catches an
exception, apart from the argparse usage paths.
"""

import ast
import contextlib
import io
import json
import os
import shutil
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro import Deployment
from repro.cli import main
from repro.core.planner import strategy_to_json
from repro.faults import single_fault
from repro.obs import export_run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = os.path.join(ROOT, "src", "repro", "cli")
CORPUS_ENTRY = os.path.join(ROOT, "corpus", "fuzz-3a9355964d00.json")

#: What one mutation may set a JSON node to.
HOSTILE = (None, "x", -1, 0, 1.5, True, [], {}, 10**30)
#: Wall-clock seconds one verb may take on one mutated artifact.
DEADLINE_S = 5


class Overran(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    def overran(_signum, _frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _paths(node, prefix=()):
    """The key path of every JSON node below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(text, paths, data):
    how = data.draw(st.sampled_from(["set", "delete", "cut"]))
    if how == "cut":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    document = json.loads(text)
    *parents, last = data.draw(st.sampled_from(paths))
    parent = document
    for key in parents:
        parent = parent[key]
    if how == "delete":
        del parent[last]
    else:
        parent[last] = data.draw(st.sampled_from(HOSTILE))
    return json.dumps(document)


def _strategy_file(directory):
    system = Deployment("industrial", "fullmesh:4").system()
    system.prepare()
    path = os.path.join(directory, "strategy.json")
    with open(path, "w") as f:
        f.write(strategy_to_json(system.strategy))
    return path


def _report_file(directory):
    system = Deployment("pipeline", "fullmesh:4").system(
        trace_mode="milestones")
    system.prepare()
    result = system.run(8, single_fault(system, "crash", at=50_000).script)
    path = os.path.join(directory, "run.json")
    export_run(result, path)
    return path


def _corpus_file(directory):
    path = os.path.join(directory, "entry.json")
    shutil.copy(CORPUS_ENTRY, path)
    return path


def _verified(code, out):
    return "repro verify: " in out and code in (0, 1)


def _replayed(code, out):
    return ("replay CONFIRMS" in out) == (code == 1) \
        and ("does NOT reproduce" in out) == (code == 0)


def _corpus_checked(code, out):
    return "corpus: 1 entries, " in out \
        and ("1 failing" in out) == (code == 1)


def _rendered(code, out):
    return code == 0 and "Recovery phase breakdown" in out


#: verb -> (argv given the artifact's path, the artifact's writer, the
#: unmutated artifact's exit code, what a verdict looks like).
VERBS = {
    "verify": (lambda path: ["verify", "--workload", "industrial",
                             "--topology", "fullmesh:4",
                             "--strategy", path],
               _strategy_file, 0, _verified),
    "replay": (lambda path: ["replay", path], _corpus_file, 1, _replayed),
    "fuzz": (lambda path: ["fuzz", "corpus-check",
                           "--corpus", os.path.dirname(path)],
             _corpus_file, 0, _corpus_checked),
    "trace": (lambda path: ["trace", path], _report_file, 0, _rendered),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with _deadline(DEADLINE_S), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_a_mutated_artifact_is_refused_in_one_line_or_judged(verb,
                                                            tmp_path):
    argv, write, unmutated, is_verdict = VERBS[verb]
    path = write(str(tmp_path))
    with open(path) as f:
        text = f.read()
    paths = sorted(_paths(json.loads(text)), key=repr)
    code, out, err = _run(argv(path))
    assert code == unmutated and is_verdict(code, out) and err == ""

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        with open(path, "w") as f:
            f.write(_mutated(text, paths, data))
        code, out, err = _run(argv(path))
        if code == 2:
            assert err.count("\n") == 1, err
            assert err.startswith(f"repro {verb}: "), err
        else:
            assert err == "" and is_verdict(code, out), (code, out, err)

    check()


# ---------------------------------------------------- what no run can hold


def _entry(directory, **changes):
    """The corpus entry with ``changes`` merged into it (a dict value
    into the entry's dict of that name), written into ``directory``."""
    with open(CORPUS_ENTRY) as f:
        payload = json.load(f)
    for key, value in changes.items():
        payload[key] = ({**payload[key], **value} if isinstance(value, dict)
                        else value)
    path = os.path.join(directory, "entry.json")
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


def _deep(directory):
    """A file nested deeper than the JSON decoder recurses."""
    path = os.path.join(directory, "deep.json")
    with open(path, "w") as f:
        f.write("[" * 100_000 + "]" * 100_000)
    return path


#: (argv given a scratch directory, what the one line names). Each is
#: exit 2 within the deadline: the unschedulable deployments exited 1
#: (a verdict code), the export onto a directory and the deep file ended
#: in a traceback, the two 10**30 horizons, the 400-node topology and
#: the 106,762-plan strategy never returned, and a version-1 fault
#: script, a layout no writer has produced since version 2, was read.
REFUSED = {
    "replay an unschedulable deployment": (
        lambda d: ["replay", _entry(d, meta={"f": 3})],
        "unschedulable deployment: f=3 needs 5 nodes"),
    "corpus-check an unschedulable deployment": (
        lambda d: ["fuzz", "corpus-check", "--corpus",
                   os.path.dirname(_entry(d, meta={"f": 3}))],
        "unschedulable deployment: f=3 needs 5 nodes"),
    "check an unschedulable deployment": (
        lambda d: ["check", "--workload", "pipeline", "--topology",
                   "fullmesh:4", "--f", "3"],
        "unschedulable deployment: f=3 needs 5 nodes"),
    "replay at f=10**30": (
        lambda d: ["replay", _entry(d, meta={"f": 10**30})],
        "unschedulable deployment: f=10000"),
    "replay on a 400-node topology": (
        lambda d: ["replay", _entry(d, meta={"topology": "fullmesh:400"})],
        "topology 'fullmesh:400' has 400 nodes, more than the 160"),
    "replay a strategy of 106,762 plans": (
        lambda d: ["replay", _entry(d, meta={"topology": "fullmesh:20",
                                             "f": 8})],
        "unschedulable deployment: f=8 over 18 eligible nodes needs "
        "106762 plans, more than the 1000"),
    "replay over 10**30 periods": (
        lambda d: ["replay", _entry(d, n_periods=10**30)],
        "past the trace's last time"),
    "replay a version-1 fault script": (
        lambda d: ["replay", _entry(d, fault_script={"version": 1})],
        "unsupported fault-script version 1"),
    "read a too deeply nested file": (
        lambda d: ["trace", _deep(d)],
        "deep.json: nested deeper than the decoder allows"),
    "export onto a directory": (
        lambda d: ["plan", "--workload", "pipeline", "--topology",
                   "fullmesh:4", "--export", d],
        "Is a directory"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_input_no_run_can_use_exits_2_in_one_line(case, tmp_path):
    argv, names = REFUSED[case]
    argv = argv(str(tmp_path))
    code, _, err = _run(argv)
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith(f"repro {argv[0]}: ") and names in line, line


# ------------------------------------------------------------------ ratchet

#: (module, function) pairs that may catch an exception: ``main``'s
#: boundary, and the argparse ``type=`` parser and ``args.error`` paths.
MAY_CATCH = {
    ("__init__.py", "main"),
    ("flags.py", "number.parse"),
    ("flags.py", "deployment"),
    ("search.py", "run_search"),
}


def _catchers(tree):
    """``(function, line)`` of every ``try`` with a handler in ``tree``,
    the function named by its dotted path."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Try) and node.handlers:
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_main_turns_a_failure_into_an_exit_code():
    stray = []
    for name in sorted(os.listdir(CLI)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(CLI, name)) as f:
            tree = ast.parse(f.read())
        stray += [f"{name}:{line} in {function or 'module'}"
                  for function, line in _catchers(tree)
                  if (name, function) not in MAY_CATCH]
    assert stray == []

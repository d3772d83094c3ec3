"""Determinism lint rules.

Each rule targets a way nondeterminism (or float brittleness) has crept
into simulators like this one and silently invalidated benchmark
numbers:

* ``wallclock`` — real-time clocks vary run to run; simulated components
  must read time from the engine (:mod:`repro.sim.time`, the node clock).
* ``unseeded-random`` — the process-global RNG is shared, unseeded, and
  order-dependent; randomness must flow through the engine's
  :class:`repro.sim.random.DeterministicRandom` and its labelled forks.
* ``set-iteration`` — iterating a bare ``set``/``frozenset``/``dict
  .keys()`` yields insertion-dependent order; anything feeding an event
  queue or schedule must be ``sorted(...)`` first.
* ``float-eq`` — ``==``/``!=`` against float literals is brittle for
  deadline arithmetic; the codebase keeps time in integer µs.
* ``unsorted-node-iteration`` — the model checker's byte-reproducibility
  guarantee and the fault layer's scripts both enumerate node ids;
  iterating ``.keys()``/``.values()``/``.items()`` of a node-id mapping
  (or a node-id set) without ``sorted(...)`` makes cell order, victim
  order, and therefore whole campaign reports insertion-dependent.
* ``float-time-arithmetic`` — the static bounds analyzer's soundness
  claim is over *integer microseconds*: a stray true division or float
  literal in its arithmetic rounds a worst case down and quietly breaks
  dominance. The deliberate float sites (tightness ratios, millisecond
  display) carry pragmas saying so.
* ``builtin-hash`` — ``hash()`` of a ``str``/``bytes`` (or anything
  containing one) is salted per process by ``PYTHONHASHSEED``; a value
  derived from it that reaches a trace event, a report or an ordering
  makes runs differ between processes while every in-process comparison
  still passes.

The first two are scoped to ``src/repro/sim``, ``src/repro/core``,
``src/repro/perf``, ``src/repro/crypto`` (the determinism-critical
layers; the verify memo's eviction lives in the last), ``repro/obs``,
``repro/mc``, ``repro/fuzz`` and ``repro/baselines`` (which drive the
same engine and are digest-pinned the same way); the clock/RNG
façades themselves (``sim/time.py``, ``sim/clock.py``,
``sim/random.py``) are exempt, being the sanctioned wrappers, as is
``perf/timing.py`` — the one module allowed to read the host clock,
because offline planning cost is precisely what it measures.
``builtin-hash`` covers the same layers plus ``repro/faults`` and the
rest of the offline half (``repro/net``, ``repro/sched``,
``repro/verify``), whose memos are keyed by node-name sets and whose
outputs are persisted artifacts.
``set-iteration`` and ``float-eq`` apply everywhere;
``unsorted-node-iteration`` is scoped to ``repro/mc``, ``repro/faults``,
``repro/fuzz`` (campaign reports leak iteration order the same way
``mc`` reports do), the batched core (whose emission plans feed the
event queue directly), the worker pool and its sweep
(``repro/perf/pool``: results cross a process boundary and are merged
back in input order) and the planner (``repro/net/routing``,
``repro/core/planner``, ``repro/sched``: strategy artifacts are pinned
byte for byte) and the baselines (``repro/baselines``: digest-pinned,
and they drive the same event queue); ``float-time-arithmetic`` is scoped to the static
bounds analyzer (``repro/verify/bounds``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

Hit = Tuple[int, int, str]

#: Path fragments of the determinism-critical layers (posix-style).
RESTRICTED_FRAGMENTS = ("repro/sim/", "repro/core/", "repro/perf/",
                        "repro/crypto/", "repro/obs/", "repro/mc/",
                        "repro/fuzz/", "repro/baselines/")
#: Layers where node-id iteration order leaks into campaign reports.
NODE_ORDER_FRAGMENTS = ("repro/mc/", "repro/faults/",
                        "repro/perf/batchcore", "repro/perf/pool",
                        "repro/fuzz/", "repro/net/routing",
                        "repro/core/planner/", "repro/sched/",
                        "repro/baselines/")
#: Layers beyond the restricted ones where a salted hash() would reach an
#: ordering, a memo key that is iterated, or a persisted artifact.
HASH_FRAGMENTS = ("repro/faults/", "repro/net/", "repro/sched/",
                  "repro/verify/")
#: Modules whose time arithmetic must stay in integer microseconds.
INT_TIME_FRAGMENTS = ("repro/verify/bounds",)
#: Sanctioned wrapper modules, exempt from the scoped rules.
EXEMPT_SUFFIXES = ("repro/sim/time.py", "repro/sim/random.py",
                   "repro/sim/clock.py", "repro/perf/timing.py")


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def _in_restricted_layer(path: str) -> bool:
    posix = _posix(path)
    if posix.endswith(EXEMPT_SUFFIXES):
        return False
    return any(fragment in posix for fragment in RESTRICTED_FRAGMENTS)


class Rule:
    """Base class: id, description, scope predicate, AST check."""

    id = "abstract"
    description = ""

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, tree: ast.AST) -> Iterator[Hit]:
        raise NotImplementedError


_WALLCLOCK_TIME_ATTRS = {
    "time", "monotonic", "perf_counter", "perf_counter_ns", "time_ns",
    "monotonic_ns", "localtime", "gmtime",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}


class WallClockRule(Rule):
    """Forbid real-time clock reads in the simulation/core layers."""

    id = "wallclock"
    description = ("wall-clock reads (time.time, datetime.now, "
                   "perf_counter, ...) are nondeterministic; use "
                   "repro.sim.time and the engine clock")

    def applies_to(self, path: str) -> bool:
        return _in_restricted_layer(path)

    def check(self, tree: ast.AST) -> Iterator[Hit]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time" and any(
                        a.name in _WALLCLOCK_TIME_ATTRS
                        for a in node.names):
                    yield (node.lineno, node.col_offset,
                           "importing wall-clock functions from `time`")
                if node.module == "datetime":
                    yield (node.lineno, node.col_offset,
                           "importing `datetime`: wall-clock dates have no "
                           "place in simulated time")
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                value = func.value
                if (isinstance(value, ast.Name) and value.id == "time"
                        and func.attr in _WALLCLOCK_TIME_ATTRS):
                    yield (node.lineno, node.col_offset,
                           f"call to time.{func.attr}()")
                elif (isinstance(value, ast.Name) and value.id == "datetime"
                        and func.attr in _WALLCLOCK_DATETIME_ATTRS):
                    yield (node.lineno, node.col_offset,
                           f"call to datetime.{func.attr}()")
                elif (isinstance(value, ast.Attribute)
                        and value.attr == "datetime"
                        and func.attr in _WALLCLOCK_DATETIME_ATTRS):
                    yield (node.lineno, node.col_offset,
                           f"call to datetime.datetime.{func.attr}()")


class UnseededRandomRule(Rule):
    """Forbid the process-global RNG in the simulation/core layers."""

    id = "unseeded-random"
    description = ("module-level random.* (and numpy.random.*) bypasses "
                   "the seeded engine RNG; use "
                   "repro.sim.random.DeterministicRandom forks")

    def applies_to(self, path: str) -> bool:
        return _in_restricted_layer(path)

    def check(self, tree: ast.AST) -> Iterator[Hit]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    yield (node.lineno, node.col_offset,
                           "importing names from the global `random` "
                           "module")
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                value = func.value
                if isinstance(value, ast.Name) and value.id == "random":
                    yield (node.lineno, node.col_offset,
                           f"call to random.{func.attr}()")
                elif (isinstance(value, ast.Attribute)
                        and value.attr == "random"
                        and isinstance(value.value, ast.Name)
                        and value.value.id in ("np", "numpy")):
                    yield (node.lineno, node.col_offset,
                           f"call to {value.value.id}.random."
                           f"{func.attr}()")


def _is_unordered_expr(node: ast.expr) -> bool:
    """Literal sets, set()/frozenset() calls, and dict .keys() views."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # Set algebra (a | b, a & b, a - b) over unordered operands.
        return (_is_unordered_expr(node.left)
                or _is_unordered_expr(node.right))
    return False


class SetIterationRule(Rule):
    """Flag iteration over expressions with no deterministic order."""

    id = "set-iteration"
    description = ("iterating a bare set/frozenset/dict.keys() has "
                   "insertion-dependent order; wrap in sorted(...) before "
                   "feeding schedules or event queues")

    def check(self, tree: ast.AST) -> Iterator[Hit]:
        for node in ast.walk(tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_unordered_expr(it):
                    yield (it.lineno, it.col_offset,
                           "iteration over an unordered set/dict-view "
                           "expression")


class FloatEqualityRule(Rule):
    """Flag ``==``/``!=`` against float literals (deadline arithmetic)."""

    id = "float-eq"
    description = ("equality against a float literal is brittle for "
                   "deadline/time arithmetic; keep time in integer µs or "
                   "compare with a tolerance")

    def check(self, tree: ast.AST) -> Iterator[Hit]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if (isinstance(side, ast.Constant)
                            and isinstance(side.value, float)):
                        yield (node.lineno, node.col_offset,
                               f"equality comparison against float "
                               f"literal {side.value!r}")
                        break


class UnsortedNodeIterationRule(Rule):
    """Flag unsorted dict-view iteration in the node-order-critical
    layers (sets are already covered everywhere by ``set-iteration``;
    this rule adds the ``.values()``/``.items()`` views, whose order is
    insertion-dependent just the same)."""

    id = "unsorted-node-iteration"
    description = ("iterating .keys()/.values()/.items() of a node-id "
                   "mapping without sorted(...) makes cell and victim "
                   "order insertion-dependent, which breaks the "
                   "campaign's byte-reproducibility; wrap in sorted(...)")

    _VIEW_ATTRS = ("keys", "values", "items")

    def applies_to(self, path: str) -> bool:
        posix = _posix(path)
        return any(fragment in posix
                   for fragment in NODE_ORDER_FRAGMENTS)

    def _is_view_call(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._VIEW_ATTRS)

    def check(self, tree: ast.AST) -> Iterator[Hit]:
        for node in ast.walk(tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_view_call(it):
                    yield (it.lineno, it.col_offset,
                           f"unsorted iteration over "
                           f".{it.func.attr}() view")


class FloatTimeArithmeticRule(Rule):
    """Keep the static-bounds analyzer in integer microseconds.

    The analyzer's dominance claim is an integer inequality; one true
    division in a bound formula rounds the worst case *down* and makes
    the claim silently false. Flags true division (``/``) and float
    literals appearing in arithmetic. The sanctioned float sites —
    tightness ratios and millisecond rendering — carry a
    ``# lint: ignore[float-time-arithmetic]`` pragma.
    """

    id = "float-time-arithmetic"
    description = ("true division or float literals in the bounds "
                   "package drift from the integer-µs discipline and "
                   "can round a worst case down; use //, _ceil_div, "
                   "and integer constants (ratio/display sites carry "
                   "a pragma)")

    def applies_to(self, path: str) -> bool:
        posix = _posix(path)
        return any(fragment in posix for fragment in INT_TIME_FRAGMENTS)

    def check(self, tree: ast.AST) -> Iterator[Hit]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, ast.Div):
                yield (node.lineno, node.col_offset,
                       "true division (/) produces a float; use // or "
                       "_ceil_div for time quantities")
            elif isinstance(node.op, (ast.Add, ast.Sub, ast.Mult,
                                      ast.FloorDiv, ast.Mod)):
                for side in (node.left, node.right):
                    if (isinstance(side, ast.Constant)
                            and isinstance(side.value, float)):
                        yield (node.lineno, node.col_offset,
                               f"float literal {side.value!r} in time "
                               f"arithmetic")
                        break


class BuiltinHashRule(Rule):
    """Forbid builtin ``hash()`` of anything but ``self``'s own fields.

    ``hash(x)`` inside a ``__hash__`` that combines the object's own
    attributes is how hashing is meant to work and never leaves the
    process; any other call is a value about to be stored, compared or
    ordered by. Derive stable ids from a content digest instead.
    """

    id = "builtin-hash"
    description = ("builtin hash() is salted per process "
                   "(PYTHONHASHSEED) for str/bytes; derive ids from a "
                   "content digest (hashlib) so traces and reports are "
                   "equal across processes")

    def applies_to(self, path: str) -> bool:
        posix = _posix(path)
        return _in_restricted_layer(path) or any(
            fragment in posix for fragment in HASH_FRAGMENTS)

    @staticmethod
    def _is_self_expr(node: ast.expr) -> bool:
        """``self``, ``self.x``, or a tuple/display of only those."""
        if isinstance(node, ast.Tuple):
            return all(BuiltinHashRule._is_self_expr(e) for e in node.elts)
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def check(self, tree: ast.AST) -> Iterator[Hit]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"
                    and not all(self._is_self_expr(a) for a in node.args)):
                yield (node.lineno, node.col_offset,
                       "builtin hash() of a non-self value")


ALL_RULES = (
    WallClockRule(),
    UnseededRandomRule(),
    SetIterationRule(),
    FloatEqualityRule(),
    UnsortedNodeIterationRule(),
    FloatTimeArithmeticRule(),
    BuiltinHashRule(),
)

__all__ = [
    "ALL_RULES",
    "BuiltinHashRule",
    "FloatEqualityRule",
    "FloatTimeArithmeticRule",
    "Rule",
    "SetIterationRule",
    "UnseededRandomRule",
    "UnsortedNodeIterationRule",
    "WallClockRule",
]

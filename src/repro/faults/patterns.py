"""Fault patterns: sets of faulty nodes, and the algebra over them.

A *fault pattern* identifies a mode: the paper's strategy maps each
anticipated pattern (every subset of nodes of size ≤ f) to a plan, and mode
ids are derived from patterns. Patterns are canonical (sorted, frozen) so
every node derives identical mode ids without coordination — the convergence
argument in §4.4 depends on this.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List

FaultPattern = FrozenSet[str]


def pattern(nodes: Iterable[str] = ()) -> FaultPattern:
    """Canonical fault pattern for a set of node ids."""
    return frozenset(nodes)


def mode_id(fault_pattern: FaultPattern) -> str:
    """The deterministic mode name for a pattern ("" pattern => "nominal")."""
    if not fault_pattern:
        return "nominal"
    return "faulty:" + "+".join(sorted(fault_pattern))


def all_patterns_up_to(nodes: Iterable[str], f: int) -> List[FaultPattern]:
    """Every fault pattern of size ≤ f over ``nodes``, smallest first.

    Ordering is deterministic: by size, then lexicographically — parents
    always precede children, which the strategy builder relies on.
    """
    sorted_nodes = sorted(nodes)
    result: List[FaultPattern] = []
    for size in range(min(f, len(sorted_nodes)) + 1):
        for combo in itertools.combinations(sorted_nodes, size):
            result.append(frozenset(combo))
    return result


def strategy_size(n_nodes: int, f: int) -> int:
    """Number of plans a complete strategy needs: sum_{k<=f} C(n, k)."""
    total = 0
    c = 1
    for k in range(min(f, n_nodes) + 1):
        total += c
        c = c * (n_nodes - k) // (k + 1)
    return total

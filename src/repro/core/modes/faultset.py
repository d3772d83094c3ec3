"""Append-only local fault sets (§4.4).

"if a node receives valid evidence of a fault on some other node X, it can
safely add X to its local set. Thus, as long as all new evidence reaches
each correct node, the system should converge to a single, consistent plan."
"""

from __future__ import annotations

from typing import FrozenSet, Set


class FaultSet:
    """A monotone (append-only) set of nodes believed faulty."""

    def __init__(self) -> None:
        self._members: Set[str] = set()

    def add(self, node: str) -> bool:
        """Add a node; returns True iff this is new information."""
        if node in self._members:
            return False
        self._members.add(node)
        return True

    def __contains__(self, node: str) -> bool:
        return node in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(sorted(self._members))

    def snapshot(self) -> FrozenSet[str]:
        return frozenset(self._members)
